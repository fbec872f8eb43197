// Tests for the ordering-strategy registry: built-in presence, mode ->
// strategy resolution, and differential equivalences between the
// strategies and independent reference implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "ordering/bt_kernels.h"
#include "ordering/greedy_chain.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"
#include "ordering/two_flit.h"

namespace nocbt::ordering {
namespace {

std::vector<std::uint32_t> random_window(std::size_t n, DataFormat format,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t mask = low_mask(value_bits(format));
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint32_t>(rng.bits64() & mask));
  return out;
}

TEST(StrategyRegistry, BuiltinsAreRegistered) {
  const std::vector<std::string> names = strategies().names();
  const std::vector<std::string> builtins = {
      "arrival", "popcount", "bucket", "chain", "hdchain", "hybrid", "twoflit"};
  // Registration order fixes SearchSpace::full() and so anneal trajectories.
  ASSERT_GE(names.size(), builtins.size());
  EXPECT_EQ(std::vector<std::string>(names.begin(),
                                     names.begin() + builtins.size()),
            builtins);
}

TEST(StrategyRegistry, LookupAndErrors) {
  EXPECT_EQ(strategies().find("popcount"), &strategies().get("popcount"));
  EXPECT_EQ(strategies().find("no-such-strategy"), nullptr);
  EXPECT_THROW((void)strategies().get("no-such-strategy"),
               std::invalid_argument);
}

TEST(StrategyRegistry, HardwareCostMetadataIsPopulated) {
  for (const OrderingStrategy* s : strategies().all()) {
    EXPECT_FALSE(s->hardware_cost().summary.empty()) << s->name();
    EXPECT_GE(s->hardware_cost().relative_area, 0.0) << s->name();
    EXPECT_FALSE(s->description().empty()) << s->name();
  }
}

TEST(StrategyRegistry, EveryModeResolvesToARegisteredStrategy) {
  for (const OrderingMode mode : all_ordering_modes()) {
    const OrderingStrategy& s = mode_strategy(mode);
    EXPECT_EQ(s.name(), mode_strategy_name(mode)) << to_string(mode);
    // The short mode key must be accepted back by the parser (the campaign
    // README documents `modes=<key>`).
    EXPECT_EQ(parse_ordering_mode(short_mode_name(mode)), mode)
        << to_string(mode);
  }
  EXPECT_EQ(mode_strategy(OrderingMode::kBaseline).name(), "arrival");
  EXPECT_EQ(mode_strategy(OrderingMode::kAffiliated).name(), "popcount");
  EXPECT_EQ(mode_strategy(OrderingMode::kSeparated).name(), "popcount");
  EXPECT_EQ(mode_strategy(OrderingMode::kHybrid).name(), "hybrid");
}

TEST(StrategyRegistry, NewModeNamesRoundTripThroughParser) {
  EXPECT_EQ(parse_ordering_mode("chain"), OrderingMode::kChain);
  EXPECT_EQ(parse_ordering_mode("hdchain"), OrderingMode::kHdChain);
  EXPECT_EQ(parse_ordering_mode("hd-chain"), OrderingMode::kHdChain);
  EXPECT_EQ(parse_ordering_mode("bucket"), OrderingMode::kBucket);
  EXPECT_EQ(parse_ordering_mode("hybrid"), OrderingMode::kHybrid);
  EXPECT_EQ(parse_ordering_mode("twoflit"), OrderingMode::kTwoFlit);
  EXPECT_THROW((void)parse_ordering_mode("O3"), std::invalid_argument);
}

TEST(StrategyRegistry, ModeListParserHandlesSweepArguments) {
  const auto modes = parse_ordering_mode_list("O0,O2,hybrid");
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_EQ(modes[0], OrderingMode::kBaseline);
  EXPECT_EQ(modes[1], OrderingMode::kSeparated);
  EXPECT_EQ(modes[2], OrderingMode::kHybrid);
  EXPECT_EQ(parse_ordering_mode_list("chain").size(), 1u);
  EXPECT_THROW((void)parse_ordering_mode_list(""), std::invalid_argument);
  EXPECT_THROW((void)parse_ordering_mode_list("O1,,O2"), std::invalid_argument);
  EXPECT_THROW((void)parse_ordering_mode_list("O1,bogus"),
               std::invalid_argument);
}

TEST(StrategyDifferential, BucketSortMatchesPopcountSortExactly) {
  // popcount_descending_order is a counting sort; the reference is a
  // comparison sort on the same key. The permutations must be identical,
  // ties included, on every window — and popcount and bucket both run it.
  const auto reference = [](std::span<const std::uint32_t> window,
                            DataFormat format) {
    std::vector<std::uint32_t> perm(window.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
      perm[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(perm.begin(), perm.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return pattern_popcount(window[a], format) >
                              pattern_popcount(window[b], format);
                     });
    return perm;
  };
  const OrderingStrategy& popcount = strategies().get("popcount");
  const OrderingStrategy& bucket = strategies().get("bucket");
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (const std::size_t n : {0u, 1u, 2u, 7u, 16u, 33u, 64u, 257u}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto window = random_window(n, format, seed * 31 + n);
        const auto expected = reference(window, format);
        EXPECT_EQ(popcount_descending_order(window, format), expected)
            << "n=" << n << " seed=" << seed;
        EXPECT_EQ(popcount.order(window, format), expected);
        EXPECT_EQ(bucket.order(window, format), expected);
      }
    }
  }
  // Stray bits above the format width never count toward the key.
  const std::vector<std::uint32_t> dirty = {0x0000FF01u, 0x02u, 0x03u,
                                            0xABCD0081u, 0x00FF0000u};
  EXPECT_EQ(popcount_descending_order(dirty, DataFormat::kFixed8),
            reference(dirty, DataFormat::kFixed8));
}

TEST(StrategyDifferential, HdChainMatchesNaiveChainExactly) {
  // chain and hdchain run the greedy chain over a compact list of the
  // values not yet chained; the reference is the naive scan plus the
  // never-worse guard, measured with the per-bit BT reference. The
  // permutations must agree on every window.
  const auto reference = [](std::span<const std::uint32_t> window,
                            DataFormat format) {
    std::vector<std::uint32_t> perm = greedy_min_xor_chain(window, format);
    const auto chained =
        apply_permutation(window, std::span<const std::uint32_t>(perm));
    if (sequence_bt_reference(chained, format) >
        sequence_bt_reference(window, format))
      for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    return perm;
  };
  const OrderingStrategy& chain = strategies().get("chain");
  const OrderingStrategy& hdchain = strategies().get("hdchain");
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (const std::size_t n : {0u, 1u, 2u, 7u, 16u, 33u, 64u, 129u}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto window = random_window(n, format, seed * 131 + n);
        const auto expected = reference(window, format);
        EXPECT_EQ(chain.order(window, format), expected)
            << "n=" << n << " seed=" << seed;
        EXPECT_EQ(hdchain.order(window, format), expected)
            << "n=" << n << " seed=" << seed;
      }
    }
  }
  // Both mask stray bits above the format width the same way, so dirty
  // fixed-8 patterns in uint32 slots cannot make them diverge.
  const std::vector<std::uint32_t> dirty = {0x0000FF01u, 0x02u, 0x03u,
                                            0xABCD0081u, 0x00FF0000u};
  EXPECT_EQ(chain.order(dirty, DataFormat::kFixed8),
            reference(dirty, DataFormat::kFixed8));
}

TEST(StrategyDifferential, HdChainMatchesNaiveChainOnLargeWindow) {
  // A 4200-value fixed-8 window: thousands of distance ties per scan, so
  // any drift from the lowest-index tie rule shows. It is past the 16-bit
  // chain key's 4096-value index field, so the avx2 tier chains it over
  // 32-bit keys.
  const DataFormat format = DataFormat::kFixed8;
  const auto window = random_window(4200, format, 77);
  const OrderingStrategy& hdchain = strategies().get("hdchain");
  const auto perm = hdchain.order(window, format);
  EXPECT_TRUE(is_permutation(perm, window.size()));
  EXPECT_EQ(perm, greedy_min_xor_chain(window, format));
}

TEST(StrategyDifferential, TwoFlitMatchesInterleaveAssignment) {
  // The twoflit permutation transmits flit 1 then flit 2 of the SIII
  // interleaved assignment: applying it must reproduce interleave_descending.
  const OrderingStrategy& twoflit = strategies().get("twoflit");
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (const std::size_t n : {2u, 4u, 8u, 12u, 16u}) {  // even: 2N values
      const auto window = random_window(n, format, 17 + n);
      const auto perm = twoflit.order(window, format);
      const auto applied = apply_permutation(
          std::span<const std::uint32_t>(window),
          std::span<const std::uint32_t>(perm));
      const TwoFlitAssignment assignment = interleave_descending(window, format);
      ASSERT_EQ(assignment.flit1.size() + assignment.flit2.size(), n);
      const std::vector<std::uint32_t> flit1(applied.begin(),
                                             applied.begin() + n / 2);
      const std::vector<std::uint32_t> flit2(applied.begin() + n / 2,
                                             applied.end());
      EXPECT_EQ(flit1, assignment.flit1) << "n=" << n;
      EXPECT_EQ(flit2, assignment.flit2) << "n=" << n;
    }
  }
}

TEST(StrategyDifferential, HybridPicksTheCheapestCandidatePerWindow) {
  const OrderingStrategy& hybrid = strategies().get("hybrid");
  const OrderingStrategy& chain = strategies().get("chain");
  for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto window = random_window(32, format, seed * 7 + 3);
      const auto perm = hybrid.order(window, format);
      const std::uint64_t bt = permuted_sequence_bt(window, perm, format);
      EXPECT_LE(bt, sequence_bt(window, format)) << "vs arrival, seed=" << seed;
      EXPECT_LE(bt, permuted_sequence_bt(
                        window, popcount_descending_order(window, format),
                        format))
          << "vs popcount, seed=" << seed;
      EXPECT_LE(bt, permuted_sequence_bt(window, chain.order(window, format),
                                         format))
          << "vs chain, seed=" << seed;
    }
  }
}

TEST(StrategyDifferential, OrderStreamWithPopcountMatchesLegacyStreamSort) {
  const auto stream = random_window(1000, DataFormat::kFixed8, 91);
  EXPECT_EQ(order_stream_with(strategies().get("popcount"), stream,
                              DataFormat::kFixed8, 64),
            order_stream_descending(stream, DataFormat::kFixed8, 64));
  EXPECT_THROW((void)order_stream_with(strategies().get("popcount"), stream,
                                       DataFormat::kFixed8, 0),
               std::invalid_argument);
}

TEST(StrategyBatch, OrderBatchEqualsLoopedOrderForEveryStrategy) {
  // order_batch is the seam the scenario runner flitizes through: for
  // every registered strategy the concatenated window-local permutations
  // must equal looping order() window by window — including the ragged
  // tail, with and without the arrival-BT hint, on tie-heavy data where a
  // scoring discrepancy would flip the chosen candidate.
  for (const OrderingStrategy* strategy : strategies().all()) {
    for (const DataFormat format :
         {DataFormat::kFixed8, DataFormat::kFloat32}) {
      for (const std::uint64_t seed : {5ull, 6ull}) {
        auto stream = random_window(135, format, seed);  // 4 windows + 7
        if (seed == 6) {  // collapse to a tiny alphabet: maximal ties
          const auto mask =
              static_cast<std::uint32_t>(low_mask(value_bits(format)));
          for (auto& v : stream) v = (v % 2 == 0) ? (0x0F0F0F0Fu & mask) : 0u;
        }
        const std::size_t wv = 32;
        const auto flat = strategy->order_batch(stream, format, wv);
        ASSERT_EQ(flat.size(), stream.size()) << strategy->name();
        const auto hints = sequence_bt_batch(stream, format, wv);
        EXPECT_EQ(strategy->order_batch(stream, format, wv, hints), flat)
            << strategy->name() << ": arrival-BT hint changed the result";
        const RawChain chain = raw_chain_batch(stream, format, wv);
        EXPECT_EQ(strategy->order_batch(stream, format, wv, {}, &chain), flat)
            << strategy->name() << ": chain hint changed the result";
        EXPECT_EQ(strategy->order_batch(stream, format, wv, hints, &chain),
                  flat)
            << strategy->name() << ": both hints changed the result";
        for (std::size_t start = 0; start < stream.size(); start += wv) {
          const std::size_t len = std::min(wv, stream.size() - start);
          const auto window = std::span(stream).subspan(start, len);
          const auto expected = strategy->order(window, format);
          const std::vector<std::uint32_t> got(
              flat.begin() + static_cast<std::ptrdiff_t>(start),
              flat.begin() + static_cast<std::ptrdiff_t>(start + len));
          EXPECT_EQ(got, expected)
              << strategy->name() << " format=" << to_string(format)
              << " seed=" << seed << " window at " << start;
        }
      }
    }
  }
}

TEST(StrategyBatch, OrderBatchValidatesArguments) {
  const auto stream = random_window(64, DataFormat::kFixed8, 3);
  const OrderingStrategy& strategy = strategies().get("hybrid");
  EXPECT_THROW((void)strategy.order_batch(stream, DataFormat::kFixed8, 0),
               std::invalid_argument);
  const std::vector<std::uint64_t> bad_hint(3);  // 64 values @ 32 = 2 windows
  EXPECT_THROW((void)strategy.order_batch(stream, DataFormat::kFixed8, 32,
                                          bad_hint),
               std::invalid_argument);
  EXPECT_TRUE(strategy.order_batch({}, DataFormat::kFixed8, 32).empty());
}

TEST(StrategyBatch, OrderBatchRejectsAMalformedChainHint) {
  // 63 values at 32 per window form 2 windows. Every strategy validates
  // the hint, and the message names both sizes.
  const auto stream = random_window(63, DataFormat::kFixed8, 4);
  const RawChain good = raw_chain_batch(stream, DataFormat::kFixed8, 32);
  RawChain short_perm = good;
  short_perm.perm.pop_back();
  RawChain extra_bt = good;
  extra_bt.bt.push_back(0);
  for (const OrderingStrategy* strategy : strategies().all()) {
    const auto expect_rejected = [&](const RawChain& hint,
                                     const std::string& have,
                                     const std::string& want) {
      try {
        (void)strategy->order_batch(stream, DataFormat::kFixed8, 32, {},
                                    &hint);
        ADD_FAILURE() << strategy->name() << ": malformed hint accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(have), std::string::npos) << what;
        EXPECT_NE(what.find(want), std::string::npos) << what;
      }
    };
    expect_rejected(short_perm, "62 values", "holds 63");
    expect_rejected(extra_bt, "3 window BTs", "forms 2 windows");
  }
}

TEST(StrategyBatch, RawChainIsTheNaiveChainPerWindowAndItsBt) {
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    const auto stream = random_window(135, format, 8);  // 4 windows + 7
    const std::size_t wv = 32;
    const RawChain chain = raw_chain_batch(stream, format, wv);
    ASSERT_EQ(chain.perm.size(), stream.size());
    ASSERT_EQ(chain.bt.size(), 5u);
    for (std::size_t w = 0; w < chain.bt.size(); ++w) {
      const std::size_t start = w * wv;
      const std::size_t len = std::min(wv, stream.size() - start);
      const auto window = std::span(stream).subspan(start, len);
      const std::vector<std::uint32_t> perm(
          chain.perm.begin() + static_cast<std::ptrdiff_t>(start),
          chain.perm.begin() + static_cast<std::ptrdiff_t>(start + len));
      EXPECT_EQ(perm, greedy_min_xor_chain(window, format)) << "window " << w;
      EXPECT_EQ(chain.bt[w], permuted_sequence_bt(window, perm, format))
          << "window " << w;
    }
  }
  EXPECT_THROW((void)raw_chain_batch({}, DataFormat::kFixed8, 0),
               std::invalid_argument);
  const RawChain empty = raw_chain_batch({}, DataFormat::kFixed8, 32);
  EXPECT_TRUE(empty.perm.empty());
  EXPECT_TRUE(empty.bt.empty());
}

}  // namespace
}  // namespace nocbt::ordering
