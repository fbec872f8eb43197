#pragma once
// Greedy min-XOR chain ordering — an ablation upper-ish bound (A4).
//
// Instead of sorting by popcount (a proxy for pattern similarity), greedily
// chain values so each successor minimizes the true Hamming distance to its
// predecessor. This directly minimizes per-step transitions at O(N^2) cost
// per window, far beyond what the paper's 12.91 kGE bubble-sort unit could
// afford — which is exactly the trade-off the ablation quantifies.
//
// greedy_min_xor_chain is the naive reference scan. The kernel tiers
// (bt_kernel_backend.h) compute the same permutation — the scalar tier
// over a compact list of the values not yet chained, the avx2 tier as one
// min-key pass per pick — and the tests pin every tier identical to it.
// chain_stream_greedy and the chain/hdchain/hybrid strategies (strategy.h)
// chain through the dispatched tier.

#include <cstdint>
#include <span>
#include <vector>

#include "common/data_format.h"

namespace nocbt::ordering {

/// Reorder `patterns` into a greedy minimum-Hamming-distance chain,
/// starting from the value with the highest popcount (ties: lowest index).
/// Returns the permutation (same contract as popcount_descending_order).
[[nodiscard]] std::vector<std::uint32_t> greedy_min_xor_chain(
    std::span<const std::uint32_t> patterns, DataFormat format);

/// Window-by-window greedy chaining over a stream (counterpart of
/// order_stream_descending for the A4 ablation), each window chained
/// through the active kernel tier: the values in greedy_min_xor_chain's
/// order, window by window.
[[nodiscard]] std::vector<std::uint32_t> chain_stream_greedy(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values);

}  // namespace nocbt::ordering
