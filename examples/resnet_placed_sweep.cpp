// resnet_placed_sweep: ordering-mode deltas on a *placed* ResNet-style
// model across NoC sizes. Unlike darknet_sweep (full inferences through
// NocDnaPlatform), this drives the src/place pipeline: the zoo ResNet is
// sharded across PE tiles, the placement engine derives the MC->PE weight
// and ifmap streams plus the PE->PE partial-sum/skip flows, and the
// campaign engine measures baseline-vs-ordered bit transitions over that
// real layer traffic — per mesh and per ordering mode.
//
//   $ ./resnet_placed_sweep                      # 8x8 + 16x16, fx8, O1 vs O2
//   $ ./resnet_placed_sweep modes=O2,bucket placement=nearmc tiles=16
//   $ ./resnet_placed_sweep meshes=8x8mc4 format=float32 json=placed.json
//
// Knobs: meshes= (RxC[mcN] list), modes=, format=, placement= (rowmajor |
// snake | nearmc), tiles= (PE tiles per layer), window=, threads=, seed=,
// model_seed=, engine=auto|active|fullscan|analytical, csv=/json=/profile=
// report files, progress=0|1.

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"

using namespace nocbt;

int main(int argc, char** argv) {
  try {
    const Options opts = Options::parse(argc, argv);
    opts.check_keys({"meshes", "modes", "format", "placement", "tiles",
                     "window", "threads", "seed", "model_seed", "engine",
                     "csv", "json", "profile", "progress"});

    sim::CampaignSpec camp;
    camp.name = "resnet-placed-sweep";
    camp.root_seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
    camp.generators = {sim::GeneratorKind::kPlacement};
    camp.formats = {parse_data_format(opts.get_string("format", "fixed8"))};
    camp.modes =
        ordering::parse_ordering_mode_list(opts.get_string("modes", "O1,O2"));
    camp.windows = {static_cast<std::uint32_t>(
        opts.get_bounded("window", 64, 1, 1'000'000))};
    camp.meshes.clear();
    for (const auto& m :
         split_csv_list(opts.get_string("meshes", "8x8mc4,16x16mc8")))
      camp.meshes.push_back(sim::parse_mesh_spec(m));

    camp.base.model = "resnet";
    camp.base.placement = opts.get_string("placement", "rowmajor");
    camp.base.tiles_per_layer =
        static_cast<std::int32_t>(opts.get_bounded("tiles", 8, 1, 1 << 20));
    camp.base.model_seed =
        static_cast<std::uint64_t>(opts.get_int("model_seed", 43));
    // Placement schedules are congestion-free on single-source phases, so
    // "auto" lets small meshes resolve analytically and falls back to the
    // active-set cycle engine where contention is possible.
    sim::apply_engine_choice(
        camp.base, sim::parse_engine_choice(opts.get_string("engine", "auto")));

    const auto scenarios = camp.expand();
    std::printf("resnet_placed_sweep: %zu scenario(s), placement=%s tiles=%d\n",
                scenarios.size(), camp.base.placement.c_str(),
                camp.base.tiles_per_layer);

    sim::RunnerConfig runner;
    runner.threads =
        static_cast<unsigned>(opts.get_bounded("threads", 2, 1, 256));
    if (opts.get_bool("progress", true)) {
      runner.on_result = [](const sim::ScenarioResult& row, std::size_t done,
                            std::size_t total) {
        std::printf("  [%zu/%zu] %-32s %s (%.0f ms)\n", done, total,
                    row.spec.name.c_str(),
                    row.error.empty() ? "ok" : row.error.c_str(),
                    row.wall_ms_baseline + row.wall_ms_ordered);
        std::fflush(stdout);
      };
    }
    const sim::CampaignResult result = sim::run_campaign(camp, runner);

    // Mode-delta table: every mode row of one mesh shares the same
    // pre-ordering placed schedule (campaign-level schedule cache), so the
    // O0 BT column repeats within a mesh and the reductions are directly
    // comparable ordering deltas.
    AsciiTable table({"scenario", "O0 BT", "ordered BT", "reduction",
                      "cycles", "engine", "energy (pJ)"});
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
                     std::string(noc::to_string(row.sim.engine)),
                     format_double(row.energy_pj, 1)});
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
    std::fprintf(stderr, "resnet_placed_sweep: %s\n", e.what());
    return 2;
  }
}
