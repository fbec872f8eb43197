#include "ordering/strategy.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"

namespace nocbt::ordering {

namespace {

std::vector<std::uint32_t> identity_permutation(std::size_t n) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  return perm;
}

/// Shared argument validation for order_batch (window count derives from
/// the span; an arrival-BT hint must cover every window exactly, a chain
/// hint every value and every window).
std::size_t check_order_batch_args(std::size_t pattern_count,
                                   std::size_t window_values,
                                   std::size_t hint_size,
                                   const RawChain* chain) {
  if (window_values == 0)
    throw std::invalid_argument("order_batch: window_values == 0");
  const std::size_t windows =
      (pattern_count + window_values - 1) / window_values;
  if (hint_size != 0 && hint_size != windows)
    throw std::invalid_argument(
        "order_batch: arrival_bt hint holds " + std::to_string(hint_size) +
        " entries but the span forms " + std::to_string(windows) +
        " windows");
  if (chain && chain->perm.size() != pattern_count)
    throw std::invalid_argument(
        "order_batch: chain hint permutes " +
        std::to_string(chain->perm.size()) + " values but the span holds " +
        std::to_string(pattern_count));
  if (chain && chain->bt.size() != windows)
    throw std::invalid_argument(
        "order_batch: chain hint holds " + std::to_string(chain->bt.size()) +
        " window BTs but the span forms " + std::to_string(windows) +
        " windows");
  return windows;
}

/// Arrival-order sequence BTs for every window: the caller's hint when
/// provided (one batch pass shared across mode rows), else one batch pass
/// here. `store` keeps the computed values alive.
std::span<const std::uint64_t> arrival_bts(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values, std::span<const std::uint64_t> hint,
    std::vector<std::uint64_t>& store) {
  if (!hint.empty() || patterns.empty()) return hint;
  store = sequence_bt_batch(patterns, format, window_values);
  return store;
}

/// Apply concatenated window-local permutations (the order_batch return
/// layout) to the values themselves: the flat candidate stream one batch
/// BT pass scores, window for window, identically to scoring each window
/// through permuted_sequence_bt.
std::vector<std::uint32_t> materialize_permuted(
    std::span<const std::uint32_t> patterns,
    std::span<const std::uint32_t> flat_perm, std::size_t window_values) {
  std::vector<std::uint32_t> values(patterns.size());
  for (std::size_t start = 0; start < patterns.size();
       start += window_values) {
    const std::size_t len = std::min(window_values, patterns.size() - start);
    for (std::size_t k = 0; k < len; ++k)
      values[start + k] = patterns[start + flat_perm[start + k]];
  }
  return values;
}

/// Registered name, description and hardware cost of a built-in. Names
/// that compute the same permutation share one class and differ only here.
struct StrategyInfo {
  std::string_view name;
  std::string_view description;
  HardwareCost cost;
};

class BuiltinStrategy : public OrderingStrategy {
 public:
  explicit BuiltinStrategy(StrategyInfo info) : info_(std::move(info)) {}
  std::string_view name() const noexcept override { return info_.name; }
  std::string_view description() const noexcept override {
    return info_.description;
  }
  HardwareCost hardware_cost() const override { return info_.cost; }

 private:
  StrategyInfo info_;
};

class ArrivalStrategy final : public BuiltinStrategy {
 public:
  using BuiltinStrategy::BuiltinStrategy;
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat) const override {
    return identity_permutation(patterns.size());
  }
};

/// "popcount" and "bucket": the stable '1'-count descending sort.
class PopcountSortStrategy final : public BuiltinStrategy {
 public:
  using BuiltinStrategy::BuiltinStrategy;
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    return popcount_descending_order(patterns, format);
  }
};

/// The caller's raw-chain hint when provided (one chain shared across the
/// chain-class rows of a grid point), else one raw_chain_batch here.
/// `store` keeps the computed chain alive.
const RawChain& raw_chain(std::span<const std::uint32_t> patterns,
                          DataFormat format, std::size_t window_values,
                          const RawChain* hint, RawChain& store) {
  if (hint) return *hint;
  store = raw_chain_batch(patterns, format, window_values);
  return store;
}

/// "chain" and "hdchain": the greedy min-XOR chain, guarded never worse
/// than arrival order. order() is order_batch() over one window.
class HdChainingStrategy final : public BuiltinStrategy {
 public:
  using BuiltinStrategy::BuiltinStrategy;
  bool never_worse_than_arrival() const noexcept override { return true; }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    return order_batch(patterns, format,
                       std::max<std::size_t>(patterns.size(), 1), {}, nullptr);
  }
  std::vector<std::uint32_t> order_batch(
      std::span<const std::uint32_t> patterns, DataFormat format,
      std::size_t window_values, std::span<const std::uint64_t> arrival_bt,
      const RawChain* chain) const override {
    check_order_batch_args(patterns.size(), window_values, arrival_bt.size(),
                           chain);
    RawChain chain_store;
    const RawChain& raw =
        raw_chain(patterns, format, window_values, chain, chain_store);
    // The raw chain carries its windows' BTs, one batch pass (or the
    // caller's hint) scores arrival order; a window whose chain would add
    // BT falls back to the identity.
    std::vector<std::uint64_t> abt_store;
    const auto abt =
        arrival_bts(patterns, format, window_values, arrival_bt, abt_store);
    std::vector<std::uint32_t> flat = raw.perm;
    for (std::size_t w = 0; w < raw.bt.size(); ++w) {
      if (raw.bt[w] <= abt[w]) continue;
      const std::size_t start = w * window_values;
      const std::size_t len = std::min(window_values, patterns.size() - start);
      for (std::size_t k = 0; k < len; ++k)
        flat[start + k] = static_cast<std::uint32_t>(k);
    }
    return flat;
  }
};

/// Per-window best of arrival, popcount and chain by measured BT.
/// order() is order_batch() over one window.
class HybridStrategy final : public BuiltinStrategy {
 public:
  using BuiltinStrategy::BuiltinStrategy;
  bool never_worse_than_arrival() const noexcept override { return true; }
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    return order_batch(patterns, format,
                       std::max<std::size_t>(patterns.size(), 1), {}, nullptr);
  }
  std::vector<std::uint32_t> order_batch(
      std::span<const std::uint32_t> patterns, DataFormat format,
      std::size_t window_values, std::span<const std::uint64_t> arrival_bt,
      const RawChain* chain) const override {
    check_order_batch_args(patterns.size(), window_values, arrival_bt.size(),
                           chain);
    std::vector<std::uint64_t> abt_store;
    const auto abt =
        arrival_bts(patterns, format, window_values, arrival_bt, abt_store);
    RawChain chain_store;
    const RawChain& raw =
        raw_chain(patterns, format, window_values, chain, chain_store);
    // Build the popcount candidate for every window, then score it in one
    // batch pass instead of one kernel call per window.
    std::vector<std::uint32_t> pop_flat;
    pop_flat.reserve(patterns.size());
    for (std::size_t start = 0; start < patterns.size();
         start += window_values) {
      const std::size_t len = std::min(window_values, patterns.size() - start);
      const auto pop =
          popcount_descending_order(patterns.subspan(start, len), format);
      pop_flat.insert(pop_flat.end(), pop.begin(), pop.end());
    }
    const auto pop_bt = sequence_bt_batch(
        materialize_permuted(patterns, pop_flat, window_values), format,
        window_values);
    // Strict-< cascade: arrival wins ties over popcount, popcount wins
    // ties over the chain (cheaper circuit first).
    std::vector<std::uint32_t> flat(patterns.size());
    for (std::size_t w = 0; w < pop_bt.size(); ++w) {
      const std::size_t start = w * window_values;
      const std::size_t len = std::min(window_values, patterns.size() - start);
      std::uint64_t best_bt = abt[w];
      const std::uint32_t* src = nullptr;  // identity
      if (pop_bt[w] < best_bt) {
        best_bt = pop_bt[w];
        src = pop_flat.data() + start;
      }
      if (raw.bt[w] < best_bt) src = raw.perm.data() + start;
      for (std::size_t k = 0; k < len; ++k)
        flat[start + k] = src ? src[k] : static_cast<std::uint32_t>(k);
    }
    return flat;
  }
};

class TwoFlitStrategy final : public BuiltinStrategy {
 public:
  using BuiltinStrategy::BuiltinStrategy;
  std::vector<std::uint32_t> order(std::span<const std::uint32_t> patterns,
                                   DataFormat format) const override {
    const auto sorted = popcount_descending_order(patterns, format);
    const std::size_t n = sorted.size();
    const std::size_t half = (n + 1) / 2;  // flit 1 takes the odd extra
    std::vector<std::uint32_t> perm(n);
    for (std::size_t i = 0; i < half; ++i) perm[i] = sorted[2 * i];
    for (std::size_t i = 0; half + i < n; ++i) perm[half + i] = sorted[2 * i + 1];
    return perm;
  }
};

}  // namespace

RawChain raw_chain_batch(std::span<const std::uint32_t> patterns,
                         DataFormat format, std::size_t window_values) {
  if (window_values == 0)
    throw std::invalid_argument("raw_chain_batch: window_values == 0");
  RawChain out;
  out.perm.resize(patterns.size());
  const BtKernelBackend& kernels = active_kernel_backend();
  for (std::size_t start = 0; start < patterns.size();
       start += window_values) {
    const std::size_t len = std::min(window_values, patterns.size() - start);
    kernels.greedy_chain(patterns.subspan(start, len), format,
                         std::span(out.perm).subspan(start, len));
  }
  out.bt = sequence_bt_batch(
      materialize_permuted(patterns, out.perm, window_values), format,
      window_values);
  return out;
}

std::vector<std::uint32_t> OrderingStrategy::order_batch(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values, std::span<const std::uint64_t> arrival_bt,
    const RawChain* chain) const {
  check_order_batch_args(patterns.size(), window_values, arrival_bt.size(),
                         chain);
  std::vector<std::uint32_t> flat;
  flat.reserve(patterns.size());
  for (std::size_t start = 0; start < patterns.size();
       start += window_values) {
    const std::size_t len = std::min(window_values, patterns.size() - start);
    const auto perm = order(patterns.subspan(start, len), format);
    flat.insert(flat.end(), perm.begin(), perm.end());
  }
  return flat;
}

Registry<OrderingStrategy>& strategies() {
  static Registry<OrderingStrategy> registry(
      "ordering strategy",
      std::make_unique<ArrivalStrategy>(StrategyInfo{
          "arrival", "identity: values leave in natural task order (O0)",
          {.summary = "none - the ordering unit is bypassed",
           .relative_area = 0.0}}),
      std::make_unique<PopcountSortStrategy>(StrategyInfo{
          "popcount",
          "stable '1'-count descending sort (the paper's O1/O2 kernel)",
          {.summary = "SWAR pop-count stage + odd-even transposition "
                      "network, 12.91 kGE at 16 lanes (paper Fig. 14)",
           .relative_area = 1.0}}),
      std::make_unique<PopcountSortStrategy>(StrategyInfo{
          "bucket",
          "'1'-count bucket (counting) sort, descending; same "
          "implementation as popcount (Han et al. sorting unit)",
          {.summary = "pop-count stage + W+1 bucket counters and a "
                      "prefix-sum placement pass; comparable area to the "
                      "sort network but fixed two-pass latency",
           .relative_area = 1.0}}),
      std::make_unique<HdChainingStrategy>(StrategyInfo{
          "chain",
          "greedy min-XOR chain (ablation A4), with fall-back to arrival "
          "order when chaining would add BT; same implementation as "
          "hdchain",
          {.summary = "serial nearest-neighbor selection: N XOR+popcount "
                      "compares per emitted value - beyond the paper's sort "
                      "network",
           .relative_area = 4.0,
           .sequential_scan = true}}),
      std::make_unique<HdChainingStrategy>(StrategyInfo{
          "hdchain",
          "nearest-neighbor Hamming-distance chaining (Li et al. operand "
          "scheduling); same implementation as chain",
          {.summary = "N^2/2 HD array filled at line rate + min-scan per "
                      "emitted value (Li et al. operand scheduling); area "
                      "grows with the window, not the paper's fixed-lane unit",
           .relative_area = 6.0,
           .sequential_scan = true}}),
      std::make_unique<HybridStrategy>(StrategyInfo{
          "hybrid",
          "window-adaptive: measures the sequence BT of arrival, popcount "
          "sort, and HD chaining per window and transmits the cheapest "
          "(ties prefer the cheaper circuit)",
          {.summary = "popcount unit + chain engine + per-window BT monitors "
                      "and a 2-bit strategy select in the packet header",
           .relative_area = 7.5,
           .sequential_scan = true,
           .per_window_adaptive = true}}),
      std::make_unique<TwoFlitStrategy>(StrategyInfo{
          "twoflit",
          "SIII two-flit interleave: popcount-sort the window, deal "
          "alternately so x1 >= y1 >= x2 >= y2 >= ..., transmit flit 1 "
          "then flit 2",
          {.summary = "popcount sort network + an alternating deal crossbar "
                      "(two flit buffers)",
           .relative_area = 1.2}}));
  return registry;
}

const OrderingStrategy& mode_strategy(OrderingMode mode) {
  // Every mode maps to a built-in, and built-ins are never removed, so the
  // resolutions can be cached once: this sits on the per-packet hot path
  // of the campaign runner and the accel packet builder, where taking the
  // registry mutex per packet would serialize worker threads.
  static const std::vector<const OrderingStrategy*> cache = [] {
    std::vector<const OrderingStrategy*> modes;
    for (const OrderingMode m : all_ordering_modes())
      modes.push_back(&strategies().get(mode_strategy_name(m)));
    return modes;
  }();
  const auto index = static_cast<std::size_t>(mode);
  if (index >= cache.size())
    throw std::invalid_argument("mode_strategy: unknown OrderingMode");
  return *cache[index];
}

std::vector<std::uint32_t> order_stream_with(
    const OrderingStrategy& strategy, std::span<const std::uint32_t> patterns,
    DataFormat format, std::size_t window_values) {
  if (window_values == 0)
    throw std::invalid_argument("order_stream_with: window_values == 0");
  // One order_batch call: chain-class/hybrid strategies score all windows
  // through batched kernel passes rather than one kernel call per window.
  const auto flat = strategy.order_batch(patterns, format, window_values);
  return materialize_permuted(patterns, flat, window_values);
}

}  // namespace nocbt::ordering
