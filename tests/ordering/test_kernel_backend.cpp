// Registry, dispatch, and differential suites for the BtKernelBackend
// kernel tier. The load-bearing invariant is byte-identity: every
// registered backend — scalar, and avx2 where the host has it — must
// return exactly the sums of the naive per-bit reference and exactly the
// naive greedy chain's permutations, batched entry points must equal
// their looped counterparts, and forcing any tier via ScopedKernelTier
// must never change a result. The campaign golden suite leans on this
// when it replays reports under every tier.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"
#include "ordering/greedy_chain.h"

namespace nocbt::ordering {
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

/// Windows drawn from a 3-value alphabet: long runs of equal values and
/// repeated distances stress the masked-tail and accumulator paths with
/// the degenerate sums random data never produces.
std::vector<std::uint32_t> tie_heavy_patterns(std::size_t n, unsigned bits,
                                              std::uint64_t seed) {
  const auto mask = static_cast<std::uint32_t>(low_mask(bits));
  const std::uint32_t alphabet[3] = {0u, mask, 0x55555555u & mask};
  Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(alphabet[rng.bits64() % 3]);
  return out;
}

/// Fixed-8 patterns carrying stray bits above bit 7 in their uint32 slots:
/// the chain must see only the transmitted byte.
std::vector<std::uint32_t> stray_bit_patterns(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint32_t>(rng.bits64()) | 0x100u);
  return out;
}

/// Float-32 patterns with bit 31 set, every other one followed by the
/// complement of a value drawn earlier: distances reach 32, so chain keys
/// carry their top bit, which a signed min would misorder.
std::vector<std::uint32_t> top_bit_patterns(std::size_t n,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(i % 2 == 1 ? ~out[rng.bits64() % i]
                             : static_cast<std::uint32_t>(rng.bits64()) |
                                   0x80000000u);
  return out;
}

/// Window sizes straddling every layout boundary: the 64-bit packed word
/// (8 fixed-8 / 2 float-32 values), the 32-byte AVX2 vector, and the
/// 128-word stack threshold of the scalar tier.
const std::size_t kWindowSizes[] = {0u,  1u,  2u,  7u,   8u,   9u,
                                    15u, 16u, 17u, 31u,  32u,  33u,
                                    63u, 64u, 65u, 255u, 256u, 257u};

const DataFormat kFormats[] = {DataFormat::kFixed8, DataFormat::kFloat32};

TEST(KernelRegistry, BuiltinsRegisteredInPriorityOrder) {
  const auto names = kernel_backends().names();
  ASSERT_GE(names.size(), 1u);
  EXPECT_EQ(names[0], "scalar");
  if (names.size() > 1) {
    EXPECT_EQ(names[1], "avx2");
  }
  for (const std::string& name : names) {
    const BtKernelBackend* backend = kernel_backends().find(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(&kernel_backends().get(name), backend);
    EXPECT_FALSE(backend->description().empty()) << name;
  }
  // scalar is the always-available floor the dispatcher can fall back to.
  EXPECT_TRUE(kernel_backends().get("scalar").available());
  EXPECT_EQ(kernel_backends().get("scalar").priority(), 0);
  if (const BtKernelBackend* avx2 = kernel_backends().find("avx2")) {
    EXPECT_GT(avx2->priority(), 0);
  }
  EXPECT_EQ(kernel_backends().find("no-such-tier"), nullptr);
}

TEST(KernelRegistry, GetUnknownThrowsListingRegisteredNames) {
  try {
    (void)kernel_backends().get("warp9");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel tier"), std::string::npos);
    EXPECT_NE(what.find("warp9"), std::string::npos);
    for (const std::string& name : kernel_backends().names())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

TEST(KernelRegistry, RegisterRejectsNullAndDuplicateNames) {
  EXPECT_THROW(kernel_backends().add(nullptr), std::invalid_argument);

  class DuplicateScalar final : public BtKernelBackend {
   public:
    std::string_view name() const noexcept override { return "scalar"; }
    std::string_view description() const noexcept override { return "dup"; }
    int priority() const noexcept override { return -1; }
    std::uint64_t sequence_bt(std::span<const std::uint32_t>,
                              DataFormat) const override {
      return 0;
    }
  };
  EXPECT_THROW(kernel_backends().add(std::make_unique<DuplicateScalar>()),
               std::invalid_argument);
  EXPECT_EQ(kernel_backends().get("scalar").priority(), 0);
}

TEST(KernelDispatch, ActiveBackendHonorsEnvOrPicksBestAvailable) {
  const BtKernelBackend& active = active_kernel_backend();
  EXPECT_TRUE(active.available());
  if (const char* env = std::getenv("NOCBT_KERNEL_TIER"); env && *env) {
    // The forced-tier CI jobs run this whole binary under the override —
    // resolution must have obeyed it.
    EXPECT_EQ(active.name(), env);
  } else {
    for (const BtKernelBackend* backend : kernel_backends().all())
      if (backend->available())
        EXPECT_GE(active.priority(), backend->priority()) << backend->name();
  }
}

TEST(KernelDispatch, ScopedTierForcesAndRestores) {
  const std::string before{active_kernel_backend().name()};
  // Hosts without avx2 nest scalar in scalar, which still must restore.
  const BtKernelBackend* avx2 = kernel_backends().find("avx2");
  const std::string inner_tier =
      avx2 != nullptr && avx2->available() ? "avx2" : "scalar";
  {
    const ScopedKernelTier outer("scalar");
    EXPECT_EQ(active_kernel_backend().name(), "scalar");
    {
      const ScopedKernelTier inner(inner_tier);
      EXPECT_EQ(active_kernel_backend().name(), inner_tier);
    }
    EXPECT_EQ(active_kernel_backend().name(), "scalar");
  }
  EXPECT_EQ(active_kernel_backend().name(), before);
}

TEST(KernelDispatch, ScopedTierRejectsUnknownNames) {
  EXPECT_THROW(ScopedKernelTier("no-such-tier"), std::invalid_argument);
}

TEST(KernelDifferential, EveryBackendMatchesNaiveReference) {
  for (const BtKernelBackend* backend : kernel_backends().all()) {
    if (!backend->available()) continue;
    for (const DataFormat format : kFormats) {
      for (const std::size_t n : kWindowSizes) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const auto window =
              random_patterns(n, value_bits(format), seed * 131 + n);
          EXPECT_EQ(backend->sequence_bt(window, format),
                    sequence_bt_reference(window, format))
              << backend->name() << " n=" << n << " seed=" << seed;
          const auto ties =
              tie_heavy_patterns(n, value_bits(format), seed * 17 + n);
          EXPECT_EQ(backend->sequence_bt(ties, format),
                    sequence_bt_reference(ties, format))
              << backend->name() << " tie-heavy n=" << n << " seed=" << seed;
        }
      }
    }
  }
}

TEST(KernelDifferential, BatchEqualsLoopedSequenceBt) {
  for (const BtKernelBackend* backend : kernel_backends().all()) {
    if (!backend->available()) continue;
    for (const DataFormat format : kFormats) {
      const auto patterns = random_patterns(257, value_bits(format), 4242);
      // Window sizes dividing 257 never evenly: every batch ends ragged.
      for (const std::size_t wv : {1u, 7u, 32u, 63u, 64u, 65u, 100u, 300u}) {
        const std::size_t windows = (patterns.size() + wv - 1) / wv;
        std::vector<std::uint64_t> batched(windows);
        backend->sequence_bt_batch(patterns, format, wv, batched);
        for (std::size_t w = 0; w < windows; ++w) {
          const std::size_t start = w * wv;
          const std::size_t len = std::min(wv, patterns.size() - start);
          EXPECT_EQ(batched[w],
                    backend->sequence_bt(
                        std::span(patterns).subspan(start, len), format))
              << backend->name() << " wv=" << wv << " window=" << w;
        }
      }
      // An empty span forms no windows; the single-window chain-class
      // order() of an empty window lands here.
      backend->sequence_bt_batch({}, format, 1, {});
    }
  }
}

TEST(KernelDifferential, BatchValidatesWindowAndOutSizes) {
  const auto patterns = random_patterns(10, 8, 7);
  std::vector<std::uint64_t> out(4);  // 10 values at wv=3 form 4 windows
  for (const BtKernelBackend* backend : kernel_backends().all()) {
    if (!backend->available()) continue;
    EXPECT_THROW(
        backend->sequence_bt_batch(patterns, DataFormat::kFixed8, 0, out),
        std::invalid_argument)
        << backend->name();
    std::vector<std::uint64_t> short_out(3);
    EXPECT_THROW(backend->sequence_bt_batch(patterns, DataFormat::kFixed8, 3,
                                            short_out),
                 std::invalid_argument)
        << backend->name();
    backend->sequence_bt_batch(patterns, DataFormat::kFixed8, 3, out);
  }
}

TEST(KernelChainDifferential, EveryTierMatchesNaiveChain) {
  // Every window size 0-300, then sizes straddling the 16-bit key's
  // 4096-value index field (fixed-8 windows past it take 32-bit keys).
  std::vector<std::size_t> sizes(301);
  std::iota(sizes.begin(), sizes.end(), std::size_t{0});
  sizes.insert(sizes.end(), {4095u, 4096u, 4097u, 4200u});
  for (const DataFormat format : kFormats) {
    const unsigned bits = value_bits(format);
    for (const std::size_t n : sizes) {
      const std::vector<std::uint32_t> inputs[] = {
          random_patterns(n, bits, n * 7 + 1),
          tie_heavy_patterns(n, bits, n * 7 + 2),
          format == DataFormat::kFixed8 ? stray_bit_patterns(n, n * 7 + 3)
                                        : top_bit_patterns(n, n * 7 + 3)};
      const char* const kinds[] = {"random", "tie-heavy",
                                   "stray/top bits"};
      for (std::size_t k = 0; k < std::size(inputs); ++k) {
        const auto expected = greedy_min_xor_chain(inputs[k], format);
        for (const BtKernelBackend* backend : kernel_backends().all()) {
          if (!backend->available()) continue;
          const ScopedKernelTier force(backend->name());
          EXPECT_EQ(greedy_chain(inputs[k], format), expected)
              << backend->name() << " " << to_string(format) << " n=" << n
              << " " << kinds[k];
        }
      }
    }
  }
}

TEST(KernelChainDifferential, ChainValidatesPermSize) {
  const auto window = random_patterns(10, 8, 9);
  for (const BtKernelBackend* backend : kernel_backends().all()) {
    if (!backend->available()) continue;
    std::vector<std::uint32_t> short_perm(9);
    EXPECT_THROW(
        backend->greedy_chain(window, DataFormat::kFixed8, short_perm),
        std::invalid_argument)
        << backend->name();
    backend->greedy_chain({}, DataFormat::kFloat32, {});  // empty is fine
  }
}

TEST(KernelFreeFunctions, DispatchedEntryPointsAreTierInvariant) {
  for (const DataFormat format : kFormats) {
    const auto patterns = random_patterns(300, value_bits(format), 31337);
    const std::uint64_t ref_bt = sequence_bt_reference(patterns, format);
    const auto ref_batch = [&] {
      const ScopedKernelTier force("scalar");
      return sequence_bt_batch(patterns, format, 32);
    }();
    for (const BtKernelBackend* backend : kernel_backends().all()) {
      if (!backend->available()) continue;
      const ScopedKernelTier force(backend->name());
      EXPECT_EQ(sequence_bt(patterns, format), ref_bt) << backend->name();
      EXPECT_EQ(sequence_bt_batch(patterns, format, 32), ref_batch)
          << backend->name();
    }
  }
}

TEST(KernelFreeFunctions, BatchHelperSizesOutputAndValidates) {
  const auto patterns = random_patterns(65, 8, 5);
  const auto out = sequence_bt_batch(patterns, DataFormat::kFixed8, 32);
  ASSERT_EQ(out.size(), 3u);  // 32 + 32 + ragged 1
  EXPECT_EQ(out[2], 0u);      // single-value window has no transitions
  EXPECT_THROW(sequence_bt_batch(patterns, DataFormat::kFixed8, 0),
               std::invalid_argument);
  EXPECT_TRUE(sequence_bt_batch({}, DataFormat::kFixed8, 8).empty());
}

}  // namespace
}  // namespace nocbt::ordering
