#pragma once
// Pluggable ordering-strategy engine.
//
// The paper evaluates exactly two reorderings (popcount sort, greedy
// min-XOR chain), but related work shows the design space is wider: '1'-
// bit-count sorting units (Han et al.) and operand Hamming-distance
// scheduling (Li et al.) are both orderings over the same packets. This
// header turns "how do we reorder a window" into a registered interface so
// O0/O1/O2, the greedy chain, and the two-flit interleave are instances
// rather than special cases — and new strategies become sweepable from the
// campaign runner by name.
//
// A strategy is a pure function window -> permutation. Pairing semantics
// (affiliated vs separated) stay with OrderingMode: every non-O2 mode
// applies its strategy's permutation to (weight, input) pairs keyed on the
// weights; O2 applies the popcount strategy per stream plus the pairing
// index. Registered built-ins, in registration order:
//
//   arrival   identity (O0 reference point)
//   popcount  stable '1'-count descending sort (the paper's unit, O1/O2)
//   bucket    the same sort under the Han et al. sorting unit's cost
//   chain     greedy min-XOR chain (ablation A4)
//   hdchain   the same chain under Li et al.'s HD-array cost
//   hybrid    per-window best of {arrival, popcount, chain} by measured BT
//   twoflit   SIII interleave x1 >= y1 >= x2 >= y2 >= ... across two flits
//
// Names that compute the same permutation share one implementation and
// differ only in description and hardware cost: popcount and bucket run
// popcount_descending_order's counting sort; chain and hdchain run one
// class over raw_chain_batch, the greedy chain of every window through the
// kernel tier's chain entry (bt_kernel_backend.h). The naive chain scan
// stays in greedy_chain.h as the reference the tests compare against.
//
// chain, hdchain and hybrid start from the same raw chain, so a caller
// that orders one stream for all three (the campaign runner, per grid
// point) computes it once and passes it to order_batch as a RawChain hint.
//
// chain/hdchain/hybrid additionally guarantee they never increase the
// window's sequence BT versus arrival order (they fall back to the
// identity permutation when the chained order would be worse), which is
// the invariant the property suite asserts for every chain-class strategy.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/data_format.h"
#include "common/registry.h"
#include "ordering/ordering.h"

namespace nocbt::ordering {

/// Hardware-cost assumptions of a strategy, relative to the paper's
/// 12.91 kGE pop-count + odd-even-transposition unit (Fig. 14).
struct HardwareCost {
  std::string summary;          ///< one-line circuit sketch
  double relative_area = 1.0;   ///< rough gate budget vs the paper's unit
  bool sequential_scan = false; ///< needs a serial O(N^2) selection loop
  bool per_window_adaptive = false;  ///< needs per-window BT monitors
};

/// The greedy min-XOR chain of every window of a stream, before any
/// never-worse guard: the candidate chain, hdchain and hybrid start from.
struct RawChain {
  /// Concatenated window-local chain permutations (the order_batch layout).
  std::vector<std::uint32_t> perm;
  /// Each chained window's sequence BT.
  std::vector<std::uint64_t> bt;
};

/// Chain every window_values-sized window of `patterns` (the last may be
/// ragged) through the active kernel tier, then score the chained stream
/// in one sequence_bt_batch pass. Throws std::invalid_argument when
/// window_values == 0.
[[nodiscard]] RawChain raw_chain_batch(std::span<const std::uint32_t> patterns,
                                       DataFormat format,
                                       std::size_t window_values);

/// One ordering policy. Implementations must be stateless and thread-safe:
/// order() is called concurrently from campaign worker threads and must be
/// a deterministic pure function of (patterns, format).
class OrderingStrategy {
 public:
  virtual ~OrderingStrategy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;
  [[nodiscard]] virtual HardwareCost hardware_cost() const = 0;

  /// Permutation p such that patterns[p[0]], patterns[p[1]], ... is the
  /// transmission order (same contract as popcount_descending_order).
  [[nodiscard]] virtual std::vector<std::uint32_t> order(
      std::span<const std::uint32_t> patterns, DataFormat format) const = 0;

  /// Batched entry point: `patterns` holds consecutive window_values-sized
  /// windows (the last may be ragged — one window per campaign injection
  /// request, or every window of a stream). Returns the concatenated
  /// window-local permutations: window w occupies the output range
  /// [w * window_values, w * window_values + len_w), holding exactly what
  /// order() returns for that window.
  ///
  /// The default loops order() per window; chain-class and hybrid
  /// strategies override it to push all their sequence-BT scoring through
  /// one BtKernelBackend batch pass per candidate ordering instead of one
  /// kernel call per window, and their order() is order_batch() over one
  /// window.
  ///
  /// `arrival_bt` optionally carries precomputed arrival-order sequence
  /// BTs, one per window (the campaign runner shares one batch pass across
  /// every mode row of a grid point). Empty means "compute them here";
  /// non-empty spans must hold exactly one entry per window. Since every
  /// kernel tier returns identical sums, the hint can never change the
  /// chosen permutations.
  ///
  /// `chain` optionally carries raw_chain_batch(patterns, format,
  /// window_values) (the campaign runner builds it once per grid point for
  /// the chain, hdchain and hybrid rows). Null means "chain here"; a hint
  /// whose perm does not cover the span, or whose bt does not hold one
  /// entry per window, throws std::invalid_argument. chain and hdchain
  /// guard it never worse than arrival, hybrid runs its cascade over it,
  /// and every other strategy ignores it. It is what those three would
  /// compute themselves, so it changes no permutation.
  [[nodiscard]] virtual std::vector<std::uint32_t> order_batch(
      std::span<const std::uint32_t> patterns, DataFormat format,
      std::size_t window_values,
      std::span<const std::uint64_t> arrival_bt = {},
      const RawChain* chain = nullptr) const;

  /// True for chain-class strategies that guarantee the ordered window's
  /// sequence BT never exceeds arrival order's (the property suite
  /// enforces the guarantee for every strategy that claims it).
  [[nodiscard]] virtual bool never_worse_than_arrival() const noexcept {
    return false;
  }
};

/// The strategy registry: the built-ins above, then anything add()ed.
[[nodiscard]] Registry<OrderingStrategy>& strategies();

/// The strategy an OrderingMode reorders with (see mode_strategy_name).
[[nodiscard]] const OrderingStrategy& mode_strategy(OrderingMode mode);

/// Reorder a whole value stream window by window with `strategy` — the
/// strategy-generic form of order_stream_descending / chain_stream_greedy.
[[nodiscard]] std::vector<std::uint32_t> order_stream_with(
    const OrderingStrategy& strategy, std::span<const std::uint32_t> patterns,
    DataFormat format, std::size_t window_values);

}  // namespace nocbt::ordering
