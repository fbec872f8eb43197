// Self-timed micro-benchmark for the ordering primitives: the software
// cost of what the paper implements in 12.91 kGE of hardware.
//
//   $ ./micro_ordering --json BENCH_ordering.json [--window 32]
//
// Times the word-packed BT-count kernel against the retained naive
// per-bit reference, every registered kernel tier (single-call and
// batched BT, and the greedy chain), and every registered ordering
// strategy at the given window size, then writes one JSON document (via
// common/json_writer) that CI gates on and uploads as an artifact, so
// future changes have a regression trajectory to compare against. No
// google-benchmark dependency, so it is always built.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/field_reader.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"
#include "ordering/greedy_chain.h"
#include "ordering/strategy.h"

using namespace nocbt;

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

struct Measurement {
  double mvalues_per_s = 0.0;    ///< windowed values processed per second /1e6
  std::uint64_t checksum = 0;    ///< fold of results, defeats dead-code elim
};

/// Time `fn(window_index)` over consecutive windows until ~100ms elapsed.
template <typename Fn>
Measurement measure_windows(std::size_t window_values, std::size_t num_windows,
                            Fn&& fn) {
  using clock = std::chrono::steady_clock;
  Measurement m;
  // One untimed warm-up pass touches every window (faults pages, warms
  // caches) so the timed passes measure the kernel, not the allocator.
  for (std::size_t w = 0; w < num_windows; ++w) m.checksum += fn(w);

  std::size_t values = 0;
  const clock::time_point start = clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t w = 0; w < num_windows; ++w) m.checksum += fn(w);
    values += window_values * num_windows;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.1);
  m.mvalues_per_s = static_cast<double>(values) / elapsed / 1e6;
  return m;
}

int run_json_bench(const std::string& path, std::size_t window_values) {
  constexpr std::size_t kNumWindows = 512;
  JsonWriter json;
  json.begin_object()
      .key("bench").value("micro_ordering")
      .key("window_values").value(static_cast<std::uint64_t>(window_values))
      .key("windows_per_pass").value(static_cast<std::uint64_t>(kNumWindows));

  json.key("bt_kernel").begin_array();
  double worst_speedup = -1.0;
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    const auto patterns = random_patterns(window_values * kNumWindows,
                                          value_bits(format), 11);
    const auto window_of = [&](std::size_t w) {
      return std::span<const std::uint32_t>(patterns)
          .subspan(w * window_values, window_values);
    };
    // Correctness gate before timing: the two kernels must agree on every
    // window (the differential test suite pins this too, but a perf
    // baseline over diverging kernels would be meaningless).
    std::uint64_t window_bt_sum = 0;
    for (std::size_t w = 0; w < kNumWindows; ++w) {
      const std::uint64_t reference =
          ordering::sequence_bt_reference(window_of(w), format);
      if (reference != ordering::sequence_bt(window_of(w), format)) {
        std::fprintf(stderr,
                     "micro_ordering: packed/naive BT mismatch at window %zu\n",
                     w);
        return 1;
      }
      window_bt_sum += reference;
    }
    const Measurement naive = measure_windows(
        window_values, kNumWindows, [&](std::size_t w) {
          return ordering::sequence_bt_reference(window_of(w), format);
        });
    const Measurement packed = measure_windows(
        window_values, kNumWindows, [&](std::size_t w) {
          return ordering::sequence_bt(window_of(w), format);
        });
    const double speedup = packed.mvalues_per_s / naive.mvalues_per_s;
    if (worst_speedup < 0.0 || speedup < worst_speedup)
      worst_speedup = speedup;
    json.begin_object()
        .key("format").value(to_string(format))
        .key("naive_mvalues_per_s").value(naive.mvalues_per_s)
        .key("packed_mvalues_per_s").value(packed.mvalues_per_s)
        .key("speedup").value(speedup)
        .key("window_bt_sum").value(window_bt_sum)
        .end_object();
  }
  json.end_array();
  json.key("bt_kernel_min_speedup").value(worst_speedup);

  // Kernel tiers: every registered BtKernelBackend timed on fixed-8
  // windows, single-call and batched. The gate CI enforces is
  // tier_best_speedup — the best tier's *batched* throughput over the
  // scalar tier's single-call throughput, i.e. what the batched scenario
  // runner gains over the PR-3 per-window kernels. tier_bt_identical
  // asserts every tier's BT sum equals the naive reference's.
  json.key("kernel_tiers").begin_array();
  {
    const DataFormat format = DataFormat::kFixed8;
    const auto patterns =
        random_patterns(window_values * kNumWindows, value_bits(format), 17);
    const auto window_of = [&](std::size_t w) {
      return std::span<const std::uint32_t>(patterns)
          .subspan(w * window_values, window_values);
    };
    std::uint64_t reference_sum = 0;
    for (std::size_t w = 0; w < kNumWindows; ++w)
      reference_sum += ordering::sequence_bt_reference(window_of(w), format);

    double scalar_single = 0.0;
    double best_batched = 0.0;
    bool tiers_identical = true;
    for (const ordering::BtKernelBackend* backend :
         ordering::kernel_backends().all()) {
      json.begin_object()
          .key("name").value(backend->name())
          .key("available").value(backend->available());
      if (!backend->available()) {
        json.end_object();
        continue;
      }
      std::vector<std::uint64_t> batch_out(kNumWindows);
      backend->sequence_bt_batch(patterns, format, window_values, batch_out);
      std::uint64_t bt_sum = 0;
      for (const std::uint64_t bt : batch_out) bt_sum += bt;
      if (bt_sum != reference_sum) tiers_identical = false;
      const Measurement single = measure_windows(
          window_values, kNumWindows, [&](std::size_t w) {
            return backend->sequence_bt(window_of(w), format);
          });
      const Measurement batched = measure_windows(
          window_values * kNumWindows, 1, [&](std::size_t) {
            backend->sequence_bt_batch(patterns, format, window_values,
                                       batch_out);
            std::uint64_t fold = 0;
            for (const std::uint64_t bt : batch_out) fold += bt;
            return fold;
          });
      if (backend->name() == "scalar") scalar_single = single.mvalues_per_s;
      if (batched.mvalues_per_s > best_batched)
        best_batched = batched.mvalues_per_s;
      json.key("single_mvalues_per_s").value(single.mvalues_per_s)
          .key("batched_mvalues_per_s").value(batched.mvalues_per_s)
          .key("window_bt_sum").value(bt_sum)
          .end_object();
    }
    json.end_array();
    json.key("tier_best_speedup")
        .value(scalar_single > 0.0 ? best_batched / scalar_single : 0.0);
    json.key("tier_bt_identical").value(tiers_identical);
    if (!tiers_identical) {
      std::fprintf(stderr,
                   "micro_ordering: kernel tiers disagree on the BT sum\n");
      return 1;
    }
  }

  // Chain tiers: every registered tier's greedy_chain entry timed on the
  // run's windows in both formats. chain_tier_best_speedup is the fastest
  // tier's throughput over the scalar tier's, in the format where that
  // ratio is lowest (the tier rule CI gates); chain_tiers_identical
  // asserts every tier returned the naive chain's permutation on every
  // window.
  json.key("chain_tiers").begin_array();
  {
    double worst_chain_speedup = -1.0;
    bool chains_identical = true;
    for (const DataFormat format :
         {DataFormat::kFixed8, DataFormat::kFloat32}) {
      const auto patterns = random_patterns(window_values * kNumWindows,
                                            value_bits(format), 19);
      const auto window_of = [&](std::size_t w) {
        return std::span<const std::uint32_t>(patterns)
            .subspan(w * window_values, window_values);
      };
      std::vector<std::vector<std::uint32_t>> reference;
      reference.reserve(kNumWindows);
      for (std::size_t w = 0; w < kNumWindows; ++w)
        reference.push_back(ordering::greedy_min_xor_chain(window_of(w), format));
      double scalar = 0.0;
      double best = 0.0;
      for (const ordering::BtKernelBackend* backend :
           ordering::kernel_backends().all()) {
        json.begin_object()
            .key("name").value(backend->name())
            .key("format").value(to_string(format))
            .key("available").value(backend->available());
        if (!backend->available()) {
          json.end_object();
          continue;
        }
        std::vector<std::uint32_t> perm(window_values);
        for (std::size_t w = 0; w < kNumWindows; ++w) {
          backend->greedy_chain(window_of(w), format, perm);
          if (perm != reference[w]) chains_identical = false;
        }
        const Measurement m = measure_windows(
            window_values, kNumWindows, [&](std::size_t w) {
              backend->greedy_chain(window_of(w), format, perm);
              return static_cast<std::uint64_t>(perm.back());
            });
        if (backend->name() == "scalar") scalar = m.mvalues_per_s;
        if (m.mvalues_per_s > best) best = m.mvalues_per_s;
        json.key("mvalues_per_s").value(m.mvalues_per_s).end_object();
      }
      const double speedup = scalar > 0.0 ? best / scalar : 0.0;
      if (worst_chain_speedup < 0.0 || speedup < worst_chain_speedup)
        worst_chain_speedup = speedup;
    }
    json.end_array();
    json.key("chain_tier_best_speedup").value(worst_chain_speedup);
    json.key("chain_tiers_identical").value(chains_identical);
    if (!chains_identical) {
      std::fprintf(stderr,
                   "micro_ordering: a kernel tier's chain differs from the "
                   "naive chain\n");
      return 1;
    }
  }

  json.key("strategies").begin_array();
  // One shared pattern buffer per format: the draw is seed-fixed, so
  // regenerating it per strategy would only burn setup time.
  const auto fx8_patterns = random_patterns(window_values * kNumWindows, 8, 13);
  const auto fp32_patterns =
      random_patterns(window_values * kNumWindows, 32, 13);
  for (const ordering::OrderingStrategy* strategy :
       ordering::strategies().all()) {
    for (const DataFormat format :
         {DataFormat::kFixed8, DataFormat::kFloat32}) {
      const auto& patterns =
          format == DataFormat::kFixed8 ? fx8_patterns : fp32_patterns;
      const Measurement m = measure_windows(
          window_values, kNumWindows, [&](std::size_t w) {
            const auto window = std::span<const std::uint32_t>(patterns)
                                    .subspan(w * window_values, window_values);
            const auto perm = strategy->order(window, format);
            return static_cast<std::uint64_t>(perm.empty() ? 0 : perm[0]);
          });
      json.begin_object()
          .key("name").value(strategy->name())
          .key("format").value(to_string(format))
          .key("mvalues_per_s").value(m.mvalues_per_s)
          .end_object();
    }
  }
  json.end_array().end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "micro_ordering: cannot open %s\n", path.c_str());
    return 1;
  }
  out << json.take() << '\n';
  if (!out) {
    std::fprintf(stderr, "micro_ordering: write failed for %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (BT kernel min speedup %.2fx at %zu-value windows)\n",
              path.c_str(), worst_speedup, window_values);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string window_text;
  if (!benchutil::parse_flags(argc, argv, "micro_ordering",
                              {{"--json", &json_path},
                               {"--window", &window_text}}))
    return 2;
  std::size_t window_values = 32;
  if (!window_text.empty()) {
    if (parse_field(window_text, window_values) != std::errc{} ||
        window_values < 2 || window_values > 1'000'000) {
      std::fprintf(stderr,
                   "micro_ordering: --window must be an integer in "
                   "[2, 1e6], got '%s'\n",
                   window_text.c_str());
      return 2;
    }
  }
  if (json_path.empty()) {
    std::fprintf(stderr,
                 "usage: micro_ordering --json FILE [--window VALUES]\n");
    return 2;
  }
  return run_json_bench(json_path, window_values);
}
