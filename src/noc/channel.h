#pragma once
// Pipelined point-to-point channel with fixed latency.
//
// Channels connect router output ports to downstream input ports (and NIs
// to routers). An optional observer sees every item as it is pushed — this
// is where the bit-transition recorder taps the physical wires. An optional
// waker tells the owning Network which component consumes this channel and
// on which cycle the pushed item becomes visible, so the active-set engine
// can skip the consumer until then.
//
// Storage is a growable ring buffer rather than a std::deque: occupancy is
// bounded by credit flow control (at most num_vcs * vc_buffer_depth flits
// can be unacknowledged on a link), so after a brief warm-up the hot path
// performs no heap allocation per push/pop.

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace nocbt::noc {

/// Callback interface the Network implements: `wake(comp, cycle)` schedules
/// component `comp` (an id the Network assigned via set_waker) to be
/// stepped at `cycle`, when an item pushed into this channel arrives.
class ChannelWaker {
 public:
  virtual void wake(std::int32_t comp, std::uint64_t cycle) = 0;

 protected:
  ~ChannelWaker() = default;
};

/// FIFO channel carrying T with `latency` cycles of delay.
/// Single producer, single consumer; at most one push per cycle.
template <typename T>
class Channel {
 public:
  explicit Channel(unsigned latency = 1) : latency_(latency) {}

  /// Install an observer invoked on every push (BT recording tap).
  void set_observer(std::function<void(const T&)> observer) {
    observer_ = std::move(observer);
  }

  /// Register the consuming component: every push schedules a wake of
  /// `consumer` at the item's arrival cycle. Installed by the Network only
  /// when the active-set engine is selected.
  void set_waker(ChannelWaker* waker, std::int32_t consumer) noexcept {
    waker_ = waker;
    consumer_ = consumer;
  }

  /// Send an item at cycle `now`; it becomes visible at `now + latency`.
  void push(std::uint64_t now, T item) {
    if (observer_) observer_(item);
    const std::uint64_t arrival = now + latency_;
    if (waker_) waker_->wake(consumer_, arrival);
    if (count_ == slots_.size()) grow();
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = {arrival, std::move(item)};
    ++count_;
  }

  /// Receive the item that arrives at cycle `now`, if any.
  [[nodiscard]] std::optional<T> pop_ready(std::uint64_t now) {
    if (count_ == 0 || slots_[head_].first > now) return std::nullopt;
    T item = std::move(slots_[head_].second);
    if (++head_ == slots_.size()) head_ = 0;
    --count_;
    return item;
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  void grow() {
    std::vector<std::pair<std::uint64_t, T>> bigger(
        slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    slots_.swap(bigger);
    head_ = 0;
  }

  unsigned latency_;
  std::vector<std::pair<std::uint64_t, T>> slots_;  // ring: [head_, head_+count_)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::function<void(const T&)> observer_;
  ChannelWaker* waker_ = nullptr;
  std::int32_t consumer_ = -1;
};

}  // namespace nocbt::noc
