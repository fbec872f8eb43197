// darknet_sweep: paper-scale DarkNet-class model sweeps across NoC sizes
// through the campaign engine — the Fig. 12/13 regime (large meshes, full
// inferences, baseline-vs-ordered BT) that motivated the active-set
// simulation engine. Each mesh runs one O0 inference of the DarkNet-like
// conv stack, which its mode rows share as their baseline, and one more
// per non-O0 mode, each on its own network; the report carries the BT
// reduction, measured link energy/power, and the step-loop profile
// (wall-clock, cycles, component skip ratio) per mesh.
//
//   $ ./darknet_sweep                       # 8x8 / 12x12 / 16x16, fixed-8, O2
//   $ ./darknet_sweep meshes=8x8mc4,16x16mc8 format=float32 mode=chain
//   $ ./darknet_sweep input=64 threads=3 profile=darknet_profile.csv
//
// Knobs: meshes= (RxC[mcN] list), format=, mode=, input= (square input side,
// default 64 as in §V-B; the smoke test uses 32), threads=, seed=,
// engine=auto|active|fullscan|analytical (models always run a cycle
// engine), csv=/json=/profile= report files, progress=0|1.

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/table.h"
#include "dnn/models.h"
#include "dnn/synthetic_data.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"

using namespace nocbt;

int main(int argc, char** argv) {
  try {
    const Options opts = Options::parse(argc, argv);
    opts.check_keys({"meshes", "format", "mode", "input", "threads", "seed",
                     "model_seed", "input_seed", "engine", "csv", "json",
                     "profile", "progress"});
    const std::int64_t input_hw = opts.get_bounded("input", 64, 8, 512);

    sim::CampaignSpec camp;
    camp.name = "darknet-sweep";
    camp.root_seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
    camp.generators = {sim::GeneratorKind::kModel};
    camp.formats = {parse_data_format(opts.get_string("format", "fixed8"))};
    camp.modes =
        ordering::parse_ordering_mode_list(opts.get_string("mode", "O2"));
    camp.meshes.clear();
    for (const auto& m : split_csv_list(
             opts.get_string("meshes", "8x8mc4,12x12mc4,16x16mc8")))
      camp.meshes.push_back(sim::parse_mesh_spec(m));
    // Model workloads always run a cycle engine; "auto"/"analytical" are
    // still accepted so sweep scripts can share one engine flag (validate()
    // rejects a forced analytical model run with a clear message).
    sim::apply_engine_choice(
        camp.base, sim::parse_engine_choice(opts.get_string("engine", "auto")));
    camp.base.model_seed =
        static_cast<std::uint64_t>(opts.get_int("model_seed", 43));
    camp.base.input_seed =
        static_cast<std::uint64_t>(opts.get_int("input_seed", 8));

    // DarkNet-class workload (§V-B): the scaled conv/leaky-relu/maxpool
    // stack with trained-like (zero-concentrated Laplace) weights over a
    // 3-channel square input.
    camp.hooks.model = [](std::uint64_t seed) {
      Rng rng(seed);
      dnn::Sequential model = dnn::build_darknet_small(rng);
      Rng fill_rng(seed + 1);
      dnn::fill_weights_trained_like(model, fill_rng, 0.04);
      return model;
    };
    camp.hooks.input = [input_hw](std::uint64_t seed) {
      dnn::SyntheticDataset::Config cfg;
      cfg.channels = 3;
      cfg.height = static_cast<std::int32_t>(input_hw);
      cfg.width = static_cast<std::int32_t>(input_hw);
      dnn::SyntheticDataset data(cfg, seed);
      return data.sample(1).images;
    };

    const auto scenarios = camp.expand();
    std::printf(
        "darknet_sweep: %zu scenario(s), %lldx%lldx3 input, %s engine\n",
        scenarios.size(), static_cast<long long>(input_hw),
        static_cast<long long>(input_hw),
        noc::to_string(camp.base.engine));

    sim::RunnerConfig runner;
    runner.threads =
        static_cast<unsigned>(opts.get_bounded("threads", 3, 1, 256));
    if (opts.get_bool("progress", true)) {
      runner.on_result = [](const sim::ScenarioResult& row, std::size_t done,
                            std::size_t total) {
        std::printf("  [%zu/%zu] %-28s %s (%.0f ms)\n", done, total,
                    row.spec.name.c_str(),
                    row.error.empty() ? "ok" : row.error.c_str(),
                    row.wall_ms_baseline + row.wall_ms_ordered);
        std::fflush(stdout);
      };
    }
    const sim::CampaignResult result = sim::run_campaign(camp, runner);

    // Mesh-scaling table: BT reduction plus the engine's skip profile —
    // the larger the mesh, the larger the quiescent fraction the
    // active-set engine never touches.
    AsciiTable table({"scenario", "O0 BT", "ordered BT", "reduction",
                      "cycles", "skip ratio", "wall (ms)"});
    for (const sim::ScenarioResult& row : result.rows) {
      if (!row.error.empty()) {
        table.add_row({row.spec.name, "-", "-", "-", "-", "-",
                       "error: " + row.error});
        continue;
      }
      table.add_row({row.spec.name, std::to_string(row.bt_baseline),
                     std::to_string(row.bt_ordered),
                     format_percent(row.reduction),
                     std::to_string(row.cycles),
                     format_percent(row.sim.skip_ratio()),
                     format_double(row.wall_ms_baseline + row.wall_ms_ordered,
                                   1)});
    }
    std::fputs(table.render().c_str(), stdout);

    const std::string csv_path = opts.get_string("csv", "");
    if (!csv_path.empty()) {
      sim::write_csv_report(csv_path, camp, result);
      std::printf("wrote CSV report to %s\n", csv_path.c_str());
    }
    const std::string json_path = opts.get_string("json", "");
    if (!json_path.empty()) {
      sim::write_json_report(json_path, camp, result);
      std::printf("wrote JSON report to %s\n", json_path.c_str());
    }
    const std::string profile_path = opts.get_string("profile", "");
    if (!profile_path.empty()) {
      sim::write_profile_csv(profile_path, camp, result);
      std::printf("wrote step-loop profile CSV to %s\n", profile_path.c_str());
    }

    std::size_t failed = 0;
    for (const auto& row : result.rows)
      if (!row.error.empty()) ++failed;
    if (failed > 0) {
      std::printf("%zu of %zu scenarios failed\n", failed, result.rows.size());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "darknet_sweep: %s\n", e.what());
    return 2;
  }
}
