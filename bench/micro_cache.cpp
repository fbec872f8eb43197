// micro_cache: the campaign service's content-addressed scenario cache as
// a measured micro-benchmark.
//
//   $ ./micro_cache                        # human-readable summary
//   $ ./micro_cache --json BENCH_cache.json
//   $ ./micro_cache --cache-dir DIR       # keep the store in DIR
//
// Runs the CI reference sweep twice through one on-disk cache_dir: a cold
// pass into an empty store (every row simulated and persisted) and a warm
// pass over the same store (every row replayed). By default the store is
// a fresh directory under the temp dir, removed afterwards. A --cache-dir
// must be absent or empty, so the cold pass is cold, and is left in
// place: the bench refuses a non-empty one rather than wiping it. Self-timed — no
// google-benchmark dependency, so it is always built. The --json document
// is the machine-readable gate CI asserts on: the warm pass must simulate
// nothing (100% hit rate), replay rows byte-identical to the cold pass,
// and be at least 5x faster; the cold pass must run one cycle-engine
// simulation per grid point (4) and the warm pass none. Wall-clock fields
// are informative for humans; the hit counts, the cycle-run counts and the
// identity bit are deterministic.

#include <stdlib.h>  // mkdtemp

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "common/json_writer.h"
#include "noc/noc_config.h"
#include "ordering/ordering.h"
#include "sim/campaign_config.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"

using namespace nocbt;

namespace {

/// The CI reference sweep: synthetic uniform + hotspot traffic, every
/// ordering strategy, both codecs, on an 8x8 mesh with the cycle engine
/// pinned (engine=auto would serve uniform rows analytically and shrink
/// the simulation cost the cold pass is supposed to pay).
sim::CampaignSpec reference_sweep() {
  Options opts;  // defaults only; the template is all-explicit below
  sim::CampaignSpec camp = sim::campaign_from_options(opts);
  camp.name = "micro_cache";
  camp.root_seed = 2025;
  camp.generators = {sim::GeneratorKind::kUniform,
                     sim::GeneratorKind::kHotspot};
  camp.modes = ordering::all_ordering_modes();
  camp.formats = {DataFormat::kFixed8, DataFormat::kFloat32};
  camp.meshes = {sim::parse_mesh_spec("8x8mc4")};
  camp.windows = {64};
  camp.base.packets = 512;
  camp.base.injection_rate = 0.5;
  camp.base.engine_auto = false;
  camp.base.engine = noc::SimEngine::kActiveSet;
  return camp;
}

struct BenchRun {
  std::size_t rows = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::size_t cold_simulated = 0;
  std::size_t warm_simulated = 0;
  std::size_t cold_cycle_runs = 0;
  std::size_t warm_cycle_runs = 0;
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  bool rows_identical = false;
};

double now_since_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The default store: removed with everything in it when it goes out of
/// scope. Nothing else is ever removed.
struct TempStore {
  std::string dir;
  ~TempStore() {
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

/// A new, empty directory under the temp dir, for this process alone.
std::string fresh_temp_dir() {
  std::string path =
      (std::filesystem::temp_directory_path() / "nocbt_micro_cache.XXXXXX")
          .string();
  std::vector<char> buf(path.begin(), path.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr)
    throw std::system_error(errno, std::generic_category(),
                            "cannot create a store under " + path);
  return buf.data();
}

BenchRun run_cold_then_warm(const std::string& cache_dir) {
  const sim::CampaignSpec camp = reference_sweep();
  sim::RunnerConfig runner;
  runner.threads = 1;  // single-threaded so the timings compare like runs
  runner.exec.cache_dir = cache_dir;

  BenchRun run;
  auto start = std::chrono::steady_clock::now();
  const sim::CampaignResult cold = sim::run_campaign(camp, runner);
  run.cold_ms = now_since_ms(start);

  start = std::chrono::steady_clock::now();
  const sim::CampaignResult warm = sim::run_campaign(camp, runner);
  run.warm_ms = now_since_ms(start);

  run.rows = cold.rows.size();
  run.cold_simulated = cold.stats.simulated;
  run.warm_simulated = warm.stats.simulated;
  run.cold_cycle_runs = cold.stats.cycle_runs;
  run.warm_cycle_runs = warm.stats.cycle_runs;
  run.warm_hits = warm.stats.cache_hits;
  run.warm_misses = warm.rows.size() - warm.stats.cache_hits;
  run.rows_identical =
      sim::json_report(camp, cold) == sim::json_report(camp, warm);
  return run;
}

int run_json(const std::string& path, const BenchRun& run) {
  JsonWriter json;
  json.begin_object()
      .key("bench").value("micro_cache")
      .key("mesh").value("8x8mc4")
      .key("rows").value(static_cast<std::uint64_t>(run.rows))
      .key("cold_ms").value(run.cold_ms)
      .key("warm_ms").value(run.warm_ms)
      .key("speedup").value(run.warm_ms > 0.0 ? run.cold_ms / run.warm_ms
                                              : 0.0)
      .key("cold_simulated").value(
          static_cast<std::uint64_t>(run.cold_simulated))
      .key("warm_simulated").value(
          static_cast<std::uint64_t>(run.warm_simulated))
      .key("cold_cycle_runs").value(
          static_cast<std::uint64_t>(run.cold_cycle_runs))
      .key("warm_cycle_runs").value(
          static_cast<std::uint64_t>(run.warm_cycle_runs))
      .key("warm_hits").value(static_cast<std::uint64_t>(run.warm_hits))
      .key("warm_misses").value(static_cast<std::uint64_t>(run.warm_misses))
      .key("rows_identical").value(run.rows_identical)
      .end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "micro_cache: cannot open %s\n", path.c_str());
    return 1;
  }
  out << json.take() << '\n';
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string json_path;
    std::string cache_dir;
    if (!benchutil::parse_flags(
            argc, argv, "micro_cache",
            {{"--json", &json_path}, {"--cache-dir", &cache_dir}}))
      return 2;
    std::error_code ec;
    if (!cache_dir.empty() && std::filesystem::exists(cache_dir, ec) &&
        !std::filesystem::is_empty(cache_dir, ec)) {
      std::fprintf(stderr,
                   "micro_cache: --cache-dir %s exists and is not empty\n",
                   cache_dir.c_str());
      return 2;
    }
    TempStore own;  // removed on exit, however the passes end
    if (cache_dir.empty()) cache_dir = own.dir = fresh_temp_dir();
    const BenchRun run = run_cold_then_warm(cache_dir);
    if (!json_path.empty()) return run_json(json_path, run);

    std::printf("micro_cache: %zu rows\n", run.rows);
    std::printf("  cold: %8.2f ms  (%zu simulated, %zu cycle runs)\n",
                run.cold_ms, run.cold_simulated, run.cold_cycle_runs);
    std::printf(
        "  warm: %8.2f ms  (%zu hits, %zu misses, %zu simulated, %zu cycle "
        "runs)\n",
        run.warm_ms, run.warm_hits, run.warm_misses, run.warm_simulated,
        run.warm_cycle_runs);
    std::printf("  speedup: %.1fx  rows_identical: %s\n",
                run.warm_ms > 0.0 ? run.cold_ms / run.warm_ms : 0.0,
                run.rows_identical ? "yes" : "NO");
    return run.rows_identical && run.warm_simulated == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_cache: %s\n", e.what());
    return 2;
  }
}
