#pragma once
// Word-packed bit-transition kernels for the ordering hot path.
//
// The per-window quality metric every strategy optimizes is the *sequence
// BT*: the total number of wire flips when the window's values traverse a
// link back to back, one value per flit slot (the SV-A stream model with a
// single lane). The fast kernels below pack a whole window into a
// contiguous uint64_t bitstream so one XOR + std::popcount covers up to 64
// bits (8 fixed-8 values) at a time; the naive per-bit implementations are
// retained as reference models for differential tests and as the benchmark
// baseline in bench/micro_ordering.
//
// The free functions here dispatch through the registered BtKernelBackend
// tier (bt_kernel_backend.h): scalar or avx2 depending on the host CPU and
// the NOCBT_KERNEL_TIER override. Every tier computes the exact same
// integer sums and chain permutations, so results are tier-invariant by
// construction.

#include <cstdint>
#include <span>
#include <vector>

#include "common/data_format.h"

namespace nocbt::ordering {

/// A value stream packed LSB-first into a contiguous bitstream: value i
/// occupies bits [i * bits_per_value, (i + 1) * bits_per_value). Unused
/// high bits of the last word are zero.
struct PackedStream {
  std::vector<std::uint64_t> words;
  std::size_t value_count = 0;
  unsigned bits_per_value = 0;

  [[nodiscard]] std::size_t bit_length() const noexcept {
    return value_count * bits_per_value;
  }
};

/// Pack the low value_bits(format) bits of each pattern; stray higher bits
/// are masked off (matching pattern_popcount's view of a value).
[[nodiscard]] PackedStream pack_patterns(std::span<const std::uint32_t> patterns,
                                         DataFormat format);

/// Fast kernel: total transitions between consecutive values of the
/// stream, computed as popcount(stream XOR (stream >> bits_per_value))
/// over the first (value_count - 1) * bits_per_value bits. Always the
/// scalar word kernel — the stream is already packed.
[[nodiscard]] std::uint64_t sequence_bt(const PackedStream& stream) noexcept;

/// Convenience: pack then count (what the hot paths call per window).
/// Dispatches through the active kernel tier.
[[nodiscard]] std::uint64_t sequence_bt(std::span<const std::uint32_t> patterns,
                                        DataFormat format);

/// Batched form: the sequence BT of every consecutive window_values-sized
/// window of `patterns` (the last window may be ragged), scored in one
/// kernel pass through the active tier. Element w equals
/// sequence_bt(patterns.subspan(w * window_values, ...), format) exactly.
[[nodiscard]] std::vector<std::uint64_t> sequence_bt_batch(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values);

/// The greedy min-XOR chain of one window through the active tier: exactly
/// greedy_min_xor_chain's permutation (greedy_chain.h), which stays the
/// naive reference the tests compare every tier against.
[[nodiscard]] std::vector<std::uint32_t> greedy_chain(
    std::span<const std::uint32_t> window, DataFormat format);

/// Same total as sequence_bt for the stream patterns[perm[0]],
/// patterns[perm[1]], ... without materializing the permuted copy.
[[nodiscard]] std::uint64_t permuted_sequence_bt(
    std::span<const std::uint32_t> patterns,
    std::span<const std::uint32_t> perm, DataFormat format) noexcept;

/// Naive per-bit reference implementation of sequence_bt. Differential
/// tests pin every kernel tier byte-identical to this; micro_ordering
/// benchmarks the tiers against it.
[[nodiscard]] std::uint64_t sequence_bt_reference(
    std::span<const std::uint32_t> patterns, DataFormat format);

namespace detail {

/// Pack patterns LSB-first into `words` (sized (n*bits + 63)/64; needs no
/// pre-zeroing — every word, including the ragged last one, is written).
/// Building block shared by pack_patterns and the kernel backends.
void pack_into(std::uint64_t* words, std::span<const std::uint32_t> patterns,
               unsigned bits, std::uint64_t mask) noexcept;

/// Shift-XOR-popcount core over an already-packed stream.
[[nodiscard]] std::uint64_t sequence_bt_words(const std::uint64_t* words,
                                              std::size_t word_count,
                                              std::size_t value_count,
                                              unsigned bits) noexcept;

}  // namespace detail

}  // namespace nocbt::ordering
