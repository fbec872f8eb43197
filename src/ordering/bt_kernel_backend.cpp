#include "ordering/bt_kernel_backend.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "ordering/bt_kernels.h"

namespace nocbt::ordering {

#ifdef NOCBT_HAVE_AVX2_TU
namespace detail_avx2 {
// Defined in bt_kernels_avx2.cpp, which CMake compiles with the AVX2 ISA
// flags only when the compiler supports them on this architecture.
std::unique_ptr<BtKernelBackend> make_avx2_backend();
}  // namespace detail_avx2
#endif

namespace {

class ScalarBackend final : public BtKernelBackend {
 public:
  std::string_view name() const noexcept override { return "scalar"; }
  std::string_view description() const noexcept override {
    return "word-packed uint64 shift-XOR-popcount, one window per call; "
           "chain scan over a compact list of the values not yet chained";
  }
  int priority() const noexcept override { return 0; }

  std::uint64_t sequence_bt(std::span<const std::uint32_t> window,
                            DataFormat format) const override {
    const unsigned bits = value_bits(format);
    const std::uint64_t mask = low_mask(bits);
    const std::size_t word_count = (window.size() * bits + 63) / 64;
    // Ordering windows are small (the paper sweeps 16-1024 values); pack
    // into a stack buffer when the stream fits so the hot path never
    // allocates. 128 words hold 1024 fixed-8 or 256 float-32 values.
    constexpr std::size_t kStackWords = 128;
    if (word_count <= kStackWords) {
      std::array<std::uint64_t, kStackWords> words;  // pack_into fills it
      detail::pack_into(words.data(), window, bits, mask);
      return detail::sequence_bt_words(words.data(), word_count, window.size(),
                                       bits);
    }
    const PackedStream stream = pack_patterns(window, format);
    return detail::sequence_bt_words(stream.words.data(), stream.words.size(),
                                     stream.value_count,
                                     stream.bits_per_value);
  }
};

/// Innermost live ScopedKernelTier (nullptr when none). A plain atomic:
/// scopes are test/bench tooling created from one thread at a time, but
/// worker threads spawned inside a scope read it concurrently.
std::atomic<const BtKernelBackend*> g_scoped_override{nullptr};

const BtKernelBackend* resolve_default_backend() {
  if (const char* env = std::getenv("NOCBT_KERNEL_TIER"); env && *env) {
    const BtKernelBackend* chosen = nullptr;
    try {
      chosen = &kernel_backends().get(env);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("NOCBT_KERNEL_TIER: ") + e.what());
    }
    if (!chosen->available())
      throw std::runtime_error("NOCBT_KERNEL_TIER names kernel tier '" +
                               std::string(env) +
                               "', which this CPU cannot execute");
    return chosen;
  }
  const BtKernelBackend* best = nullptr;
  for (const BtKernelBackend* b : kernel_backends().all())
    if (b->available() && (best == nullptr || b->priority() > best->priority()))
      best = b;
  return best;  // scalar is always available, so never null
}

}  // namespace

Registry<BtKernelBackend>& kernel_backends() {
#ifdef NOCBT_HAVE_AVX2_TU
  static Registry<BtKernelBackend> registry(
      "kernel tier", std::make_unique<ScalarBackend>(),
      detail_avx2::make_avx2_backend());
#else
  static Registry<BtKernelBackend> registry("kernel tier",
                                            std::make_unique<ScalarBackend>());
#endif
  return registry;
}

void BtKernelBackend::check_batch_args(std::size_t pattern_count,
                                       std::size_t window_values,
                                       std::size_t out_size) {
  if (window_values == 0)
    throw std::invalid_argument("sequence_bt_batch: window_values == 0");
  const std::size_t windows =
      (pattern_count + window_values - 1) / window_values;
  if (out_size != windows)
    throw std::invalid_argument(
        "sequence_bt_batch: out holds " + std::to_string(out_size) +
        " slots but " + std::to_string(pattern_count) + " patterns at " +
        std::to_string(window_values) + " values per window form " +
        std::to_string(windows) + " windows");
}

void BtKernelBackend::check_chain_args(std::size_t window_size,
                                       std::size_t perm_size) {
  if (perm_size != window_size)
    throw std::invalid_argument(
        "greedy_chain: perm holds " + std::to_string(perm_size) +
        " slots but the window holds " + std::to_string(window_size) +
        " values");
}

void BtKernelBackend::sequence_bt_batch(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values, std::span<std::uint64_t> out) const {
  check_batch_args(patterns.size(), window_values, out.size());
  for (std::size_t w = 0; w < out.size(); ++w) {
    const std::size_t start = w * window_values;
    const std::size_t len = std::min(window_values, patterns.size() - start);
    out[w] = sequence_bt(patterns.subspan(start, len), format);
  }
}

/// The scalar chain: the values not yet chained stay masked and in arrival
/// order, so each scan's first strict minimum is the lowest-index one; the
/// winner is erased, never swap-removed, to keep that order. Distances are
/// computed as the scan reads them: the chain reads each pair at most once.
void BtKernelBackend::greedy_chain(std::span<const std::uint32_t> window,
                                   DataFormat format,
                                   std::span<std::uint32_t> perm) const {
  check_chain_args(window.size(), perm.size());
  const std::size_t n = window.size();
  if (n == 0) return;

  std::size_t seed = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (pattern_popcount(window[i], format) >
        pattern_popcount(window[seed], format))
      seed = i;

  const auto mask = static_cast<std::uint32_t>(low_mask(value_bits(format)));
  struct Pending {
    std::uint32_t value;  ///< masked pattern
    std::uint32_t index;  ///< position in the window
  };
  std::vector<Pending> rest;
  rest.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    if (i != seed)
      rest.push_back({window[i] & mask, static_cast<std::uint32_t>(i)});

  std::size_t emitted = 0;
  perm[emitted++] = static_cast<std::uint32_t>(seed);
  std::uint32_t current = window[seed] & mask;
  while (!rest.empty()) {
    std::size_t best = 0;
    int best_dist = popcount32(current ^ rest[0].value);
    for (std::size_t k = 1; k < rest.size(); ++k) {
      const int dist = popcount32(current ^ rest[k].value);
      if (dist < best_dist) {
        best = k;
        best_dist = dist;
      }
    }
    perm[emitted++] = rest[best].index;
    current = rest[best].value;
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(best));
  }
}

const BtKernelBackend& active_kernel_backend() {
  if (const BtKernelBackend* scoped =
          g_scoped_override.load(std::memory_order_acquire))
    return *scoped;
  // Environment/CPUID resolution happens once; the scoped override above
  // stays checkable afterwards because it is consulted first.
  static const BtKernelBackend* const resolved = resolve_default_backend();
  return *resolved;
}

ScopedKernelTier::ScopedKernelTier(std::string_view name) {
  const BtKernelBackend& chosen = kernel_backends().get(name);
  if (!chosen.available())
    throw std::runtime_error("ScopedKernelTier: kernel tier '" +
                             std::string(name) +
                             "' is registered but this CPU cannot execute it");
  previous_ = g_scoped_override.exchange(&chosen, std::memory_order_acq_rel);
}

ScopedKernelTier::~ScopedKernelTier() {
  g_scoped_override.store(previous_, std::memory_order_release);
}

}  // namespace nocbt::ordering
