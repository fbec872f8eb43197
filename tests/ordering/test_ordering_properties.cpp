// Property-based randomized suite over the ordering-strategy registry:
// invariants every registered strategy must satisfy, checked for random
// windows across both data formats.
//
//   P1  order() returns a valid permutation of [0, n) — bijective, and
//       applying it loses no value (multiset preserved).
//   P2  chain-class strategies (never_worse_than_arrival) never increase
//       the window's sequence BT versus arrival order.
//   P3  ordering is deterministic: the same window yields the same
//       permutation on every call (strategies are pure functions).
//
// The suite iterates strategies().all(), so a strategy added to the
// registry — including ones registered by other tests in this binary — is
// covered automatically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "ordering/bt_kernels.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"

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

/// Windows that exercise empties, singletons, odd sizes, powers of two and
/// off-by-ones around the packing word size.
constexpr std::size_t kWindowSizes[] = {0, 1, 2, 3, 5, 8, 15, 16,
                                        17, 31, 32, 33, 64, 100};
constexpr std::uint64_t kSeeds[] = {1, 42, 977};

TEST(OrderingStrategyProperties, OrderIsAValidPermutation) {
  for (const OrderingStrategy* strategy : strategies().all()) {
    for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
      for (const std::size_t n : kWindowSizes) {
        for (const std::uint64_t seed : kSeeds) {
          const auto window = random_window(n, format, seed * 7919 + n);
          const auto perm = strategy->order(window, format);
          ASSERT_TRUE(is_permutation(perm, n))
              << strategy->name() << " n=" << n << " seed=" << seed;
          // No value is lost or duplicated by applying the permutation.
          auto applied = apply_permutation(
              std::span<const std::uint32_t>(window),
              std::span<const std::uint32_t>(perm));
          auto original = window;
          std::sort(applied.begin(), applied.end());
          std::sort(original.begin(), original.end());
          ASSERT_EQ(applied, original)
              << strategy->name() << " n=" << n << " seed=" << seed;
        }
      }
    }
  }
}

TEST(OrderingStrategyProperties, ChainClassNeverIncreasesWindowBt) {
  for (const OrderingStrategy* strategy : strategies().all()) {
    if (!strategy->never_worse_than_arrival()) continue;
    for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
      for (const std::size_t n : kWindowSizes) {
        for (const std::uint64_t seed : kSeeds) {
          const auto window = random_window(n, format, seed * 104729 + n);
          const auto perm = strategy->order(window, format);
          EXPECT_LE(permuted_sequence_bt(window, perm, format),
                    sequence_bt_reference(window, format))
              << strategy->name() << " n=" << n << " seed=" << seed;
        }
      }
    }
  }
}

TEST(OrderingStrategyProperties, AdversarialWindowsRespectTheChainGuard) {
  // Windows crafted so arrival order is already a minimal-BT gray-code
  // walk: a greedy chain seeded at the highest popcount would reorder and
  // lose — the guard must kick in (or the chain genuinely tie).
  const std::vector<std::uint32_t> gray = {0x00, 0x01, 0x03, 0x02,
                                           0x06, 0x07, 0x05, 0x04};
  for (const OrderingStrategy* strategy : strategies().all()) {
    if (!strategy->never_worse_than_arrival()) continue;
    const auto perm = strategy->order(gray, DataFormat::kFixed8);
    EXPECT_LE(permuted_sequence_bt(gray, perm, DataFormat::kFixed8),
              sequence_bt_reference(gray, DataFormat::kFixed8))
        << strategy->name();
  }
}

TEST(OrderingStrategyProperties, OrderIsDeterministicForAFixedWindow) {
  for (const OrderingStrategy* strategy : strategies().all()) {
    for (const DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
      for (const std::size_t n : {std::size_t{16}, std::size_t{33}}) {
        const auto window = random_window(n, format, 1234 + n);
        const auto first = strategy->order(window, format);
        const auto second = strategy->order(window, format);
        EXPECT_EQ(first, second) << strategy->name() << " n=" << n;
      }
    }
  }
}

TEST(OrderingStrategyProperties, StreamOrderingPreservesEveryWindowsValues) {
  // order_stream_with must chunk exactly like the legacy stream functions:
  // whole stream re-emitted, window boundaries intact.
  const DataFormat format = DataFormat::kFixed8;
  const auto stream = random_window(101, format, 5);  // ragged tail window
  for (const OrderingStrategy* strategy : strategies().all()) {
    const auto ordered = order_stream_with(*strategy, stream, format, 16);
    ASSERT_EQ(ordered.size(), stream.size()) << strategy->name();
    for (std::size_t start = 0; start < stream.size(); start += 16) {
      const std::size_t len = std::min<std::size_t>(16, stream.size() - start);
      std::vector<std::uint32_t> in(stream.begin() + start,
                                    stream.begin() + start + len);
      std::vector<std::uint32_t> out(ordered.begin() + start,
                                     ordered.begin() + start + len);
      std::sort(in.begin(), in.end());
      std::sort(out.begin(), out.end());
      EXPECT_EQ(in, out) << strategy->name() << " window at " << start;
    }
  }
}

}  // namespace
}  // namespace nocbt::ordering
