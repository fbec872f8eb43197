// Differential tests pinning the word-packed BT/HD kernels byte-identical
// to the retained naive per-bit reference implementations, over randomized
// widths — including non-multiple-of-64 flit widths and zero-length edge
// cases. These are the proofs behind micro_ordering's speedup claims.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/bt_count.h"
#include "common/bitops.h"
#include "common/bitvec.h"
#include "common/rng.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"

namespace nocbt {
namespace {

std::vector<std::uint32_t> random_patterns(std::size_t n, unsigned bits,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint32_t>(rng.bits64() & low_mask(bits)));
  return out;
}

BitVec random_bitvec(unsigned width, Rng& rng) {
  BitVec v(width);
  for (unsigned b = 0; b < width; ++b) v.set_bit(b, rng.flip(0.5));
  return v;
}

TEST(SequenceBtKernel, PackedMatchesNaiveReferenceForRandomWindows) {
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    // Window sizes straddling the 64-bit word (for fixed-8 a word holds 8
    // values, for float-32 two) and the 128-word stack-buffer threshold of
    // the span overload (128 words = 1024 fixed-8 / 256 float-32 values).
    for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u,
                                32u, 63u, 64u, 65u, 255u, 256u, 257u, 1023u,
                                1024u, 1025u}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto window = random_patterns(n, value_bits(format), seed * 37 + n);
        const std::uint64_t reference =
            ordering::sequence_bt_reference(window, format);
        EXPECT_EQ(ordering::sequence_bt(window, format), reference)
            << "span overload, n=" << n << " seed=" << seed;
        EXPECT_EQ(ordering::sequence_bt(ordering::pack_patterns(window, format)),
                  reference)
            << "PackedStream overload, n=" << n << " seed=" << seed;
        // The permuted kernel over the identity permutation is the same sum.
        std::vector<std::uint32_t> identity(n);
        for (std::size_t i = 0; i < n; ++i)
          identity[i] = static_cast<std::uint32_t>(i);
        EXPECT_EQ(ordering::permuted_sequence_bt(window, identity, format),
                  reference)
            << "permuted overload, n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(SequenceBtKernel, EveryKernelTierMatchesNaiveReference) {
  // The span overload dispatches through the active BtKernelBackend; force
  // each registered tier in turn so every machine kernel this host can run
  // is pinned to the same sums (the dedicated backend suite covers the
  // backend API itself — this guards the dispatched free functions the
  // strategies and sim actually call).
  for (const ordering::BtKernelBackend* backend :
       ordering::kernel_backends().all()) {
    if (!backend->available()) continue;
    const ordering::ScopedKernelTier force(backend->name());
    for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
      for (const std::size_t n :
           {0u, 1u, 2u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 257u}) {
        const auto window = random_patterns(n, value_bits(format), 7 * n + 1);
        EXPECT_EQ(ordering::sequence_bt(window, format),
                  ordering::sequence_bt_reference(window, format))
            << backend->name() << " n=" << n;
      }
    }
  }
}

TEST(SequenceBtKernel, MasksStrayHighBitsLikeTheReference) {
  // Fixed-8 patterns arrive in uint32 slots; bits above the format width
  // must not contribute for either implementation.
  const std::vector<std::uint32_t> dirty = {0xFFFFFF01u, 0xABCD00F0u,
                                            0x12340055u};
  EXPECT_EQ(ordering::sequence_bt(dirty, DataFormat::kFixed8),
            ordering::sequence_bt_reference(dirty, DataFormat::kFixed8));
  // 0x01 -> 0xF0: XOR 0xF1, 5 flips; 0xF0 -> 0x55: XOR 0xA5, 4 flips.
  EXPECT_EQ(ordering::sequence_bt(dirty, DataFormat::kFixed8), 9u);
}

TEST(SequenceBtKernel, PackedStreamLayoutIsLsbFirst) {
  const std::vector<std::uint32_t> patterns = {0xAB, 0xCD, 0x12, 0x34, 0x56,
                                               0x78, 0x9A, 0xBC, 0xDE};
  const auto stream = ordering::pack_patterns(patterns, DataFormat::kFixed8);
  EXPECT_EQ(stream.value_count, patterns.size());
  EXPECT_EQ(stream.bits_per_value, 8u);
  EXPECT_EQ(stream.bit_length(), 72u);
  ASSERT_EQ(stream.words.size(), 2u);
  EXPECT_EQ(stream.words[0], 0xBC9A78563412CDABull);  // values 0..7, LSB first
  EXPECT_EQ(stream.words[1], 0xDEull);                // ragged tail, rest zero
  // Value i sits at bits [8i, 8i+8).
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const std::size_t pos = i * 8;
    const std::uint64_t word = stream.words[pos / 64];
    EXPECT_EQ((word >> (pos % 64)) & 0xFF, patterns[i]) << "value " << i;
  }
}

TEST(StreamBtKernel, WordPackedMatchesPerBitReferenceAcrossWidths) {
  // Flit widths deliberately straddle the word size: the word-packed path
  // (BitVec XOR+popcount) must agree with the naive per-bit walk even when
  // the last word is ragged.
  Rng rng(2718);
  for (const unsigned width : {1u, 7u, 63u, 64u, 65u, 100u, 127u, 128u, 129u,
                               191u, 192u, 511u, 512u, 513u}) {
    for (const std::size_t flit_count : {0u, 1u, 2u, 5u, 9u}) {
      std::vector<BitVec> flits;
      flits.reserve(flit_count);
      for (std::size_t i = 0; i < flit_count; ++i)
        flits.push_back(random_bitvec(width, rng));
      const analysis::StreamBt fast = analysis::stream_bt(flits);
      const analysis::StreamBt reference = analysis::stream_bt_reference(flits);
      EXPECT_EQ(fast.total_bt, reference.total_bt)
          << "width=" << width << " flits=" << flit_count;
      EXPECT_EQ(fast.flit_pairs, reference.flit_pairs)
          << "width=" << width << " flits=" << flit_count;
    }
  }
}

TEST(StreamBtKernel, ZeroLengthAndSingleFlitEdgeCases) {
  EXPECT_EQ(analysis::stream_bt({}).total_bt, 0u);
  EXPECT_EQ(analysis::stream_bt_reference({}).total_bt, 0u);
  const std::vector<BitVec> one(1, BitVec(64));
  EXPECT_EQ(analysis::stream_bt(one).flit_pairs, 0u);
  EXPECT_EQ(analysis::stream_bt_reference(one).flit_pairs, 0u);
  EXPECT_EQ(ordering::sequence_bt({}, DataFormat::kFixed8), 0u);
  EXPECT_EQ(ordering::sequence_bt_reference({}, DataFormat::kFixed8), 0u);
}

TEST(StreamBtKernel, ReferenceRejectsMixedWidths) {
  std::vector<BitVec> flits{BitVec(64), BitVec(65)};
  EXPECT_THROW((void)analysis::stream_bt_reference(flits),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocbt
