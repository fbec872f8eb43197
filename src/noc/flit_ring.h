#pragma once
// Fixed-capacity ring buffer of flits — the storage behind a router VC
// input FIFO. Capacity equals the configured `vc_buffer_depth`, allocated
// once at router construction, so the hot flit path performs no heap
// allocation per buffered flit (the Flits themselves are moved in and out;
// their BitVec payload storage moves with them).

#include <cstddef>
#include <utility>
#include <vector>

#include "noc/flit.h"

namespace nocbt::noc {

/// FIFO of at most `capacity` flits. push_back on a full ring and
/// front/pop_front on an empty ring are protocol bugs; callers (the
/// router's credit flow control) guarantee they never happen, and the
/// router throws std::logic_error before pushing into a full ring.
class FlitRing {
 public:
  explicit FlitRing(std::size_t capacity) : slots_(capacity) {}

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ == slots_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  [[nodiscard]] const Flit& front() const noexcept { return slots_[head_]; }

  void push_back(Flit&& flit) noexcept {
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(flit);
    ++count_;
  }

  /// Move the oldest flit out (its slot keeps a moved-from husk whose
  /// heap storage is reused by a later push's move-assignment).
  [[nodiscard]] Flit pop_front() noexcept {
    Flit flit = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --count_;
    return flit;
  }

 private:
  std::vector<Flit> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace nocbt::noc
