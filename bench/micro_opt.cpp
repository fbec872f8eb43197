// micro_opt: the co-optimizer as a measured micro-benchmark.
//
//   $ ./micro_opt                    # human-readable summary
//   $ ./micro_opt --json BENCH_opt.json
//
// Runs the fixed-seed annealing co-optimization of the placed LeNet on an
// 8x8 mesh — the CI reference workload — and reports the search outcome.
// The --json document is the machine-readable gate CI asserts on:
// best_power_mw must be <= baseline_power_mw (the never-worse-than-
// baseline guarantee), and the winner's configuration is echoed so a
// regression in what the search finds is visible in the artifact diff.
// Wall-clock is informative only; every other field is deterministic.

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "common/config.h"
#include "common/json_writer.h"
#include "opt/coopt.h"
#include "ordering/ordering.h"
#include "place/policy.h"
#include "sim/campaign_config.h"

using namespace nocbt;

namespace {

struct BenchRun {
  opt::CoOptResult result;
  double wall_ms = 0.0;
};

BenchRun run_reference_coopt() {
  // The CI reference workload: placed LeNet, 8x8 mesh with 4 MCs, fixed-8
  // plus float-32 codecs, two windows, every registered ordering strategy
  // and placement policy. Small enough for a ctest/CI budget, rich enough
  // that the search has real axes to move along.
  Options opts;  // defaults only; the campaign template is all-explicit below
  sim::CampaignSpec base = sim::campaign_from_options(opts);
  base.name = "micro_opt";
  base.generators = {sim::GeneratorKind::kPlacement};
  base.meshes = {sim::parse_mesh_spec("8x8mc4")};
  base.modes = ordering::all_ordering_modes();
  base.windows = {32, 64};
  base.formats = {DataFormat::kFixed8, DataFormat::kFloat32};
  base.base.model = "lenet";
  base.base.tiles_per_layer = 8;

  opt::SearchSpace space = opt::SearchSpace::from_campaign(
      base, place::registered_policy_names());

  opt::CoOptConfig config;
  config.optimizer = "anneal";
  config.seed = 1;
  config.max_evals = 16;

  const auto start = std::chrono::steady_clock::now();
  BenchRun run;
  run.result = opt::run_coopt(base, space, config);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

int run_json(const std::string& path) {
  const BenchRun run = run_reference_coopt();
  const opt::CoOptResult& r = run.result;

  JsonWriter json;
  json.begin_object()
      .key("bench").value("micro_opt")
      .key("model").value("lenet")
      .key("mesh").value("8x8mc4")
      .key("optimizer").value("anneal")
      .key("opt_seed").value(std::uint64_t{1})
      .key("max_evals").value(std::uint64_t{16})
      .key("baseline").value(opt::to_string(r.baseline))
      .key("baseline_power_mw").value(r.baseline_power_mw)
      .key("best").value(opt::to_string(r.best))
      .key("best_placement").value(r.best.placement)
      .key("best_mode").value(ordering::short_mode_name(r.best.mode))
      .key("best_window").value(std::uint64_t{r.best.window})
      .key("best_format").value(to_string(r.best.format))
      .key("best_power_mw").value(r.best_power_mw)
      .key("best_energy_pj").value(r.best_result.energy_pj)
      .key("reduction_vs_baseline")
      .value(r.baseline_power_mw > 0.0
                 ? 1.0 - r.best_power_mw / r.baseline_power_mw
                 : 0.0)
      .key("guard_applied").value(r.guard_applied)
      .key("search_steps").value(static_cast<std::uint64_t>(r.steps.size()))
      .key("evaluations").value(static_cast<std::uint64_t>(r.evaluations))
      .key("wall_ms").value(run.wall_ms)
      .end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "micro_opt: cannot open %s\n", path.c_str());
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
    if (!benchutil::parse_flags(argc, argv, "micro_opt",
                                {{"--json", &json_path}}))
      return 2;
    if (!json_path.empty()) return run_json(json_path);

    const BenchRun run = run_reference_coopt();
    const opt::CoOptResult& r = run.result;
    std::printf("micro_opt: anneal on placed LeNet, 8x8mc4\n");
    std::fputs(opt::coopt_report(r).c_str(), stdout);
    std::printf("wall_ms=%.1f\n", run.wall_ms);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_opt: %s\n", e.what());
    return 2;
  }
}
