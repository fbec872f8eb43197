#pragma once
// '1'-bit count-based data transmission ordering — the paper's primary
// contribution (§III-B, §IV).
//
// Three transmission configurations (§V-B):
//   O0 baseline   — values transmitted in natural task order
//   O1 affiliated — (weight, input) pairs sorted by the weight's popcount,
//                   descending; pairing preserved, no recovery needed
//   O2 separated  — weights and inputs each sorted by their own popcount;
//                   a minimal-bit-width pairing index re-pairs them at the PE
//
// All routines operate on value bit patterns (uint32_t, low value_bits()
// significant) and return permutations so callers can reorder values and
// any side data consistently.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/data_format.h"

namespace nocbt::ordering {

/// Transmission ordering configuration. The paper names O0/O1/O2; the
/// remaining modes pair (weight, input) values like O1 but key the
/// reordering on a different registered OrderingStrategy (see strategy.h).
enum class OrderingMode : std::uint8_t {
  kBaseline,    // O0: natural task order
  kAffiliated,  // O1: popcount sort on weights, pairs move together
  kSeparated,   // O2: popcount sort per stream + pairing index
  kChain,       // affiliated pairing, greedy min-XOR chain (ablation A4)
  kHdChain,     // affiliated pairing, the same chain at Li et al.'s HD cost
  kBucket,      // affiliated pairing, the O1 sort at Han et al.'s unit cost
  kHybrid,      // affiliated pairing, per-window best-of candidate pick
  kTwoFlit,     // affiliated pairing, two-flit interleave of SIII
};

[[nodiscard]] std::string to_string(OrderingMode mode);

/// Accepts short_mode_name's and to_string's spelling of every mode, plus
/// the aliases "baseline", "affiliated", "separated", "greedy-chain",
/// "hd-chain", "bucket-sort" and "two-flit". Throws std::invalid_argument
/// listing every accepted spelling.
[[nodiscard]] OrderingMode parse_ordering_mode(const std::string& s);

/// O0: values leave in arrival order, no strategy runs.
[[nodiscard]] constexpr bool mode_is_baseline(OrderingMode mode) noexcept {
  return mode == OrderingMode::kBaseline;
}

/// O2: weights and inputs are ordered independently and re-paired at the
/// PE through the minimal-bit-width index. Every other non-baseline mode
/// keeps pairs affiliated and needs no recovery metadata.
[[nodiscard]] constexpr bool mode_is_separated(OrderingMode mode) noexcept {
  return mode == OrderingMode::kSeparated;
}

/// chain, hdchain and hybrid: the modes whose strategy starts from the
/// greedy min-XOR chain of each window (RawChain, strategy.h), so one raw
/// chain of a stream serves all three. All three keep pairs affiliated,
/// so only the weights stream is ever chained.
[[nodiscard]] constexpr bool mode_chains(OrderingMode mode) noexcept {
  return mode == OrderingMode::kChain || mode == OrderingMode::kHdChain ||
         mode == OrderingMode::kHybrid;
}

/// Name of the registered OrderingStrategy a mode reorders with ("arrival"
/// for O0, "popcount" for O1/O2, the strategy's own name otherwise).
[[nodiscard]] std::string_view mode_strategy_name(OrderingMode mode) noexcept;

/// Compact mode key used in scenario names and sweep arguments: "O0", "O1",
/// "O2", "chain", "hdchain", "bucket", "hybrid", "twoflit". Each is also
/// accepted by parse_ordering_mode.
[[nodiscard]] std::string short_mode_name(OrderingMode mode);

/// Every mode, in enum order (for sweeps and exhaustive tests).
[[nodiscard]] const std::vector<OrderingMode>& all_ordering_modes();

/// Parse a comma-separated mode list ("O0,O2,hybrid"). Empty tokens are
/// rejected, as is an empty result — the shared front door for every
/// sweep front-end's `modes=` argument.
[[nodiscard]] std::vector<OrderingMode> parse_ordering_mode_list(
    const std::string& csv);

/// Permutation p such that patterns[p[0]], patterns[p[1]], ... have
/// non-increasing popcount. Stable: equal-popcount values keep their
/// original relative order, making the result deterministic. A counting
/// sort, linear in the window; the popcount and bucket strategies, O1/O2
/// and every other popcount-sorting caller run this one implementation.
[[nodiscard]] std::vector<std::uint32_t> popcount_descending_order(
    std::span<const std::uint32_t> patterns, DataFormat format);

/// out[i] = values[perm[i]].
template <typename T>
[[nodiscard]] std::vector<T> apply_permutation(
    std::span<const T> values, std::span<const std::uint32_t> perm) {
  std::vector<T> out;
  out.reserve(perm.size());
  for (const std::uint32_t idx : perm) out.push_back(values[idx]);
  return out;
}

/// inv[perm[i]] = i.
[[nodiscard]] std::vector<std::uint32_t> inverse_permutation(
    std::span<const std::uint32_t> perm);

/// Pairing index for separated-ordering recovery: entry i gives the
/// position, in the *sorted-input* sequence, of the input originally paired
/// with the i-th *sorted weight*. The PE computes
///   sum_i sorted_w[i] * sorted_in[pair_index[i]]
/// to recover the original dot product. Width per entry is
/// index_bits(N) — the "minimal-bit-width index" of §IV-C1.
[[nodiscard]] std::vector<std::uint32_t> separated_pairing_index(
    std::span<const std::uint32_t> weight_perm,
    std::span<const std::uint32_t> input_perm);

/// Verify that `perm` is a permutation of [0, n) (used by tests and by the
/// packet decoder to validate sideband metadata).
[[nodiscard]] bool is_permutation(std::span<const std::uint32_t> perm,
                                  std::size_t n);

/// Reorder a whole value stream window by window: within each consecutive
/// window of `window_values` values, sort descending by popcount. This is
/// the no-NoC experiment's transformation (§V-A): a window models one
/// packet whose flits traverse a link back to back.
[[nodiscard]] std::vector<std::uint32_t> order_stream_descending(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values);

}  // namespace nocbt::ordering
