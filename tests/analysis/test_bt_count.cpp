// Tests for flitization, stream BT counting, per-bit statistics, and the
// no-NoC experiment harness (Table I machinery).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "analysis/bit_stats.h"
#include "analysis/bt_count.h"
#include "analysis/stream_experiment.h"
#include "common/float_bits.h"
#include "common/rng.h"

namespace nocbt::analysis {
namespace {

TEST(Flitize, PacksSlotsAtValueOffsets) {
  const std::vector<std::uint32_t> patterns = {0xAB, 0xCD, 0xEF};
  const auto flits = flitize(patterns, DataFormat::kFixed8, 2);
  ASSERT_EQ(flits.size(), 2u);
  EXPECT_EQ(flits[0].width(), 16u);
  EXPECT_EQ(flits[0].get_field(0, 8), 0xABu);
  EXPECT_EQ(flits[0].get_field(8, 8), 0xCDu);
  EXPECT_EQ(flits[1].get_field(0, 8), 0xEFu);
  EXPECT_EQ(flits[1].get_field(8, 8), 0x00u);  // zero padding
}

TEST(Flitize, Float32Slots) {
  const std::vector<std::uint32_t> patterns = {0xDEADBEEF, 0x12345678};
  const auto flits = flitize(patterns, DataFormat::kFloat32, 8);
  ASSERT_EQ(flits.size(), 1u);
  EXPECT_EQ(flits[0].width(), 256u);
  EXPECT_EQ(flits[0].get_field(0, 32), 0xDEADBEEFu);
  EXPECT_EQ(flits[0].get_field(32, 32), 0x12345678u);
}

TEST(Flitize, RejectsZeroValuesPerFlit) {
  // Zero slots per flit would yield no flits and so a silent 0 BT.
  const std::vector<std::uint32_t> patterns = {0xAB, 0xCD};
  EXPECT_THROW((void)flitize(patterns, DataFormat::kFixed8, 0),
               std::invalid_argument);
  EXPECT_THROW((void)pattern_stream_bt(patterns, DataFormat::kFixed8, 0),
               std::invalid_argument);
}

TEST(StreamBt, CountsConsecutivePairsOnly) {
  std::vector<BitVec> flits;
  for (std::uint64_t bits : {0x0ull, 0xFFull, 0xFFull, 0x0Full}) {
    BitVec v(64);
    v.set_field(0, 64, bits);
    flits.push_back(v);
  }
  const StreamBt result = stream_bt(flits);
  EXPECT_EQ(result.flit_pairs, 3u);
  EXPECT_EQ(result.total_bt, 8u + 0u + 4u);
  EXPECT_DOUBLE_EQ(result.bt_per_flit(), 4.0);
}

TEST(StreamBt, EmptyAndSingle) {
  EXPECT_EQ(stream_bt({}).total_bt, 0u);
  std::vector<BitVec> one(1, BitVec(64));
  EXPECT_EQ(stream_bt(one).flit_pairs, 0u);
  EXPECT_DOUBLE_EQ(stream_bt(one).bt_per_flit(), 0.0);
}

TEST(BitStats, OneProbabilityMsbFirst) {
  // Patterns: 0x80 has MSB set, 0x01 has LSB set.
  const std::vector<std::uint32_t> patterns = {0x80, 0x80, 0x01, 0x00};
  const auto p = one_probability_per_bit(patterns, DataFormat::kFixed8);
  ASSERT_EQ(p.size(), 8u);
  EXPECT_DOUBLE_EQ(p[0], 0.5);   // MSB set in 2 of 4
  EXPECT_DOUBLE_EQ(p[7], 0.25);  // LSB set in 1 of 4
  for (int b = 1; b < 7; ++b) EXPECT_DOUBLE_EQ(p[static_cast<std::size_t>(b)], 0.0);
}

TEST(BitStats, FloatSignBitOfNegativeValues) {
  std::vector<std::uint32_t> patterns;
  patterns.push_back(float_to_bits(-1.0f));
  patterns.push_back(float_to_bits(-2.5f));
  patterns.push_back(float_to_bits(3.0f));
  const auto p = one_probability_per_bit(patterns, DataFormat::kFloat32);
  ASSERT_EQ(p.size(), 32u);
  EXPECT_NEAR(p[0], 2.0 / 3.0, 1e-12);  // sign bit (MSB-first index 0)
}

TEST(BitStats, TransitionProbabilityPerLane) {
  // Two flits of 2 lanes each: lane 0 flips LSB (0x00 -> 0x01), lane 1
  // unchanged.
  const std::vector<std::uint32_t> patterns = {0x00, 0xFF, 0x01, 0xFF};
  const auto p =
      transition_probability_per_bit(patterns, DataFormat::kFixed8, 2);
  ASSERT_EQ(p.size(), 8u);
  EXPECT_DOUBLE_EQ(p[7], 0.5);  // LSB flipped in 1 of 2 lane comparisons
  for (int b = 0; b < 7; ++b) EXPECT_DOUBLE_EQ(p[static_cast<std::size_t>(b)], 0.0);
}

TEST(BitStats, EmptyInputsYieldZeros) {
  const std::vector<std::uint32_t> empty;
  for (double v : one_probability_per_bit(empty, DataFormat::kFixed8))
    EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v :
       transition_probability_per_bit(empty, DataFormat::kFixed8, 4))
    EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MakePatterns, Float32IsRawBits) {
  const std::vector<float> values = {1.0f, -1.0f};
  const auto stream = make_patterns(values, DataFormat::kFloat32);
  EXPECT_FALSE(stream.codec.has_value());
  EXPECT_EQ(stream.patterns[0], float_to_bits(1.0f));
  EXPECT_EQ(stream.patterns[1], float_to_bits(-1.0f));
}

TEST(MakePatterns, Fixed8CalibratesOnStream) {
  const std::vector<float> values = {0.5f, -1.0f, 0.25f};
  const auto stream = make_patterns(values, DataFormat::kFixed8);
  ASSERT_TRUE(stream.codec.has_value());
  // -1.0 is the max-abs: it maps to code -127 = pattern 0x81.
  EXPECT_EQ(stream.patterns[1], 0x81u);
}

TEST(TilePatterns, RepeatsStream) {
  const std::vector<std::uint32_t> source = {1, 2, 3};
  const auto tiled = tile_patterns(source, 8);
  EXPECT_EQ(tiled, (std::vector<std::uint32_t>{1, 2, 3, 1, 2, 3, 1, 2}));
  EXPECT_THROW(tile_patterns({}, 4), std::invalid_argument);
}

TEST(StreamExperiment, OrderingReducesBtOnBimodalData) {
  // Randomly interleaved near-+max (few ones under two's complement) and
  // near--max (many ones) values: baseline lanes mix the two populations,
  // ordering groups them, collapsing transitions.
  Rng rng(55);
  std::vector<float> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back(rng.flip(0.5)
                         ? 1.0f + static_cast<float>(rng.uniform(0, 0.1))
                         : -1.0f - static_cast<float>(rng.uniform(0, 0.1)));
  StreamExperimentConfig cfg;
  cfg.format = DataFormat::kFixed8;
  cfg.values_per_flit = 8;
  cfg.flits_per_packet = 16;
  cfg.num_packets = 200;
  const auto result = run_stream_experiment(values, cfg);
  EXPECT_GT(result.baseline_bt_per_flit, 0.0);
  EXPECT_GT(result.reduction(), 0.30);
  EXPECT_EQ(result.flit_bits, 64u);
}

TEST(StreamExperiment, OrderingNearNeutralOnUniformRandomBits) {
  // For i.i.d. uniform random bit patterns the expected gain is small; the
  // experiment must not *increase* BT materially.
  Rng rng(56);
  std::vector<float> values;
  for (int i = 0; i < 8192; ++i)
    values.push_back(bits_to_float((static_cast<std::uint32_t>(rng.bits64()) &
                                    0x007FFFFFu) |
                                   0x3F000000u));  // uniform mantissas
  StreamExperimentConfig cfg;
  cfg.format = DataFormat::kFloat32;
  cfg.num_packets = 100;
  const auto result = run_stream_experiment(values, cfg);
  EXPECT_GT(result.reduction(), -0.02);
  EXPECT_LT(result.reduction(), 0.30);
}

TEST(StreamExperiment, RejectsDegenerateConfig) {
  const std::vector<float> values = {1.0f};
  StreamExperimentConfig cfg;
  cfg.values_per_flit = 0;
  EXPECT_THROW(run_stream_experiment(values, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::analysis
