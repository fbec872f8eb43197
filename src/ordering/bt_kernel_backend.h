#pragma once
// Vectorized bit-transition kernel tier with runtime dispatch.
//
// The ordering hot path — sequence-BT scoring over word-packed windows,
// and the greedy min-XOR chain that chain, hdchain and hybrid start from
// — dominates campaign rows and optimizer evaluations now that the
// analytical NoC backend and the scenario cache removed most simulation
// cost. This header turns "which machine kernel counts the transitions
// and scans the chain" into a registered interface, held in the same
// Registry template as the OrderingStrategy / PlacementPolicy / Optimizer
// registries:
//
//   scalar   the word-packed uint64 kernels, one window per call, and the
//            chain scan over a compact list of the values not yet chained;
//            the portable tier every host runs
//   avx2     vpshufb-LUT popcount over 256-bit lanes (AVX-512 vpopcntq
//            inner loops where the CPU has them) and a min-key chain scan,
//            registered only when the TU could be compiled and available
//            only when CPUID agrees
//
// A tier is kept only while it beats the tier below it by >= 1.2x in
// `micro_ordering --json`, which times every registered tier's BT kernels
// and its chain.
//
// Every tier computes the exact same integer sums and chain permutations
// — the differential suites pin each registered backend byte-identical to
// the naive per-bit reference and the naive chain scan — so campaign
// reports are invariant under the selected tier.
//
// Dispatch: active_kernel_backend() picks the highest-priority available
// backend at first use, unless the NOCBT_KERNEL_TIER environment variable
// names a specific tier (unknown or unavailable names fail loudly) or a
// ScopedKernelTier is alive. Tests and benches use ScopedKernelTier to
// exercise every tier on any host.

#include <cstdint>
#include <span>
#include <string_view>

#include "common/data_format.h"
#include "common/registry.h"

namespace nocbt::ordering {

/// One machine-kernel tier. Implementations must be stateless and
/// thread-safe: the methods are called concurrently from campaign worker
/// threads and must be deterministic pure functions of their arguments.
/// All tiers return bit-identical results; only throughput differs.
class BtKernelBackend {
 public:
  virtual ~BtKernelBackend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// True when the host CPU can execute this tier. Unavailable backends
  /// stay registered (and enumerable) but are skipped by auto-dispatch and
  /// rejected by the NOCBT_KERNEL_TIER override with a descriptive error.
  [[nodiscard]] virtual bool available() const noexcept { return true; }

  /// Auto-dispatch rank: the highest-priority available backend wins.
  [[nodiscard]] virtual int priority() const noexcept = 0;

  /// Total transitions between consecutive values of one window (the
  /// kernel under ordering::sequence_bt).
  [[nodiscard]] virtual std::uint64_t sequence_bt(
      std::span<const std::uint32_t> window, DataFormat format) const = 0;

  /// Batched entry point: score every consecutive window_values-sized
  /// window of `patterns` (the last window may be ragged) in one pass.
  /// `out.size()` must equal ceil(patterns.size() / window_values).
  /// The base implementation loops sequence_bt per window; batched tiers
  /// override it to amortize packing and traverse the whole span once.
  virtual void sequence_bt_batch(std::span<const std::uint32_t> patterns,
                                 DataFormat format, std::size_t window_values,
                                 std::span<std::uint64_t> out) const;

  /// Greedy min-XOR chain of one window into `perm` (`perm.size()` must
  /// equal `window.size()`): the value with the most '1' bits first, then
  /// repeatedly the value not yet chained at the least Hamming distance
  /// from the last one, ties to the lowest index, distances over the
  /// format's value bits only — exactly greedy_min_xor_chain's permutation
  /// (greedy_chain.h). The base implementation is the scalar tier's scan
  /// over a compact list of the values not yet chained; the avx2 tier
  /// overrides it and falls back to it for windows its keys cannot index.
  virtual void greedy_chain(std::span<const std::uint32_t> window,
                            DataFormat format,
                            std::span<std::uint32_t> perm) const;

 protected:
  /// Shared argument validation for the batched entry points (throws
  /// std::invalid_argument naming the offending size).
  static void check_batch_args(std::size_t pattern_count,
                               std::size_t window_values,
                               std::size_t out_size);
  /// Same for greedy_chain: the permutation must cover the window.
  static void check_chain_args(std::size_t window_size,
                               std::size_t perm_size);
};

/// The kernel-tier registry, in registration order: scalar, then avx2
/// where it was compiled. Unavailable tiers stay registered.
[[nodiscard]] Registry<BtKernelBackend>& kernel_backends();

/// The tier the free kernel functions dispatch to. Resolution order:
///   1. the innermost live ScopedKernelTier, if any;
///   2. the NOCBT_KERNEL_TIER environment variable (resolved once at first
///      use; unknown or unavailable tiers throw std::runtime_error);
///   3. the highest-priority backend whose available() is true.
[[nodiscard]] const BtKernelBackend& active_kernel_backend();

/// RAII tier override for tests and benches: forces every kernel call in
/// the process to the named tier (which must be available) for the scope's
/// lifetime, then restores the previous selection. Takes effect globally —
/// campaign worker threads spawned inside the scope see it — but scopes
/// must not be created concurrently from multiple threads.
class ScopedKernelTier {
 public:
  explicit ScopedKernelTier(std::string_view name);
  ~ScopedKernelTier();
  ScopedKernelTier(const ScopedKernelTier&) = delete;
  ScopedKernelTier& operator=(const ScopedKernelTier&) = delete;

 private:
  const BtKernelBackend* previous_;
};

}  // namespace nocbt::ordering
