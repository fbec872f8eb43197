// Regenerates paper Fig. 12: absolute BT counts and reduction rates for
// full LeNet inference on the NOC-DNA across NoC sizes — 4x4 mesh with 2
// MCs, 8x8 with 4 MCs, 8x8 with 8 MCs — for O0/O1/O2 and both data formats
// (512-bit links for float-32, 128-bit for fixed-8; 4 VCs, 4-flit buffers,
// X-Y routing, §V-B).
//
// Since PR 2 this bench is a thin spec over the scenario campaign engine:
// the grid {formats} x {modes} x {meshes} expands into model-workload
// scenarios executed on a worker pool (the runner measures the O0 baseline
// inside each scenario), proving the campaign path reproduces a paper
// figure end to end. Any registered ordering strategy is sweepable:
//
//   $ ./fig12_noc_sizes                      # paper figure: O1, O2
//   $ ./fig12_noc_sizes modes=O2,hybrid,chain,bucket
//
// Paper reference: affiliated 12.09-18.58% (float-32) / 7.88-17.75%
// (fixed-8); separated 23.30-32.01% (float-32) / 16.95-35.93% (fixed-8);
// the 8x8-MC4 configuration shows the largest absolute BT (most routers
// per MC => most hops).

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "common/table.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"

using namespace nocbt;
using ordering::OrderingMode;

namespace {

const sim::ScenarioResult& find_row(const sim::CampaignResult& result,
                                    const std::string& name) {
  for (const auto& row : result.rows)
    if (row.spec.name == name) {
      if (!row.error.empty())
        throw std::runtime_error("scenario " + name + " failed: " + row.error);
      return row;
    }
  throw std::runtime_error("scenario " + name + " missing from campaign");
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);
  opts.check_keys({"modes", "threads"});
  const auto threads =
      static_cast<unsigned>(opts.get_bounded("threads", 4, 1, 1024));
  const std::vector<OrderingMode> modes =
      ordering::parse_ordering_mode_list(opts.get_string("modes", "O1,O2"));

  std::puts("=== Fig. 12: BTs across different NoC sizes (full LeNet inference) ===");
  std::puts("(training LeNet on the synthetic dataset...)\n");
  // Warm the on-disk trained-weights cache serially so the campaign's
  // worker threads all hit it instead of racing to train.
  (void)benchutil::make_lenet_trained(42);

  sim::CampaignSpec camp;
  camp.name = "fig12_noc_sizes";
  camp.generators = {sim::GeneratorKind::kModel};
  camp.formats = {DataFormat::kFloat32, DataFormat::kFixed8};
  camp.modes = modes;
  camp.meshes = {{4, 4, 2}, {8, 8, 4}, {8, 8, 8}};
  camp.windows = {0};  // model workloads have no synthetic ordering window
  camp.base.model_seed = 42;
  camp.base.input_seed = 7;
  camp.hooks.model = [](std::uint64_t seed) {
    return benchutil::make_lenet_trained(seed);
  };
  camp.hooks.input = [](std::uint64_t seed) {
    return benchutil::lenet_input(seed);
  };

  sim::RunnerConfig runner;
  runner.threads = threads;
  const sim::CampaignResult result = sim::run_campaign(camp, runner);

  for (DataFormat format : {DataFormat::kFloat32, DataFormat::kFixed8}) {
    std::printf("--- %s (%u-bit links, 16 values/flit) ---\n",
                to_string(format).c_str(), 16 * value_bits(format));
    std::vector<std::string> headers{"NoC", "O0 BT"};
    for (const OrderingMode mode : modes) {
      const std::string key = ordering::short_mode_name(mode);
      headers.push_back(key + " BT");
      headers.push_back(key + " reduction");
    }
    headers.push_back("cycles");
    AsciiTable table(headers);
    for (const sim::MeshSpec& mesh : camp.meshes) {
      std::vector<std::string> cells{std::to_string(mesh.rows) + "x" +
                                     std::to_string(mesh.cols) + " MC" +
                                     std::to_string(mesh.mcs)};
      std::string cycles;
      for (const OrderingMode mode : modes) {
        const auto& row = find_row(
            result, sim::scenario_name(sim::GeneratorKind::kModel, format,
                                       mode, mesh, 0));
        if (cells.size() == 1)
          cells.push_back(std::to_string(row.bt_baseline));
        cells.push_back(std::to_string(row.bt_ordered));
        cells.push_back(format_percent(row.reduction));
        if (cycles.empty()) cycles = std::to_string(row.cycles);
      }
      cells.push_back(cycles);
      table.add_row(cells);
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("");
  }

  std::puts("Expected shape: O2 > O1 > 0 reduction everywhere; 8x8-MC4 has");
  std::puts("the largest absolute BT (most routers per MC => longest routes).");
  std::puts("Paper bands: O1 12.09-18.58% (f32) / 7.88-17.75% (fx8);");
  std::puts("             O2 23.30-32.01% (f32) / 16.95-35.93% (fx8).");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig12_noc_sizes: %s\n", e.what());
  return 2;
}
