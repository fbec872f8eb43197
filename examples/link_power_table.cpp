// link_power_table: the paper's §V-C link-power table, twice over.
//
// Part 1 (static): the toggle-fraction estimate with link count and width
// derived from a live NocConfig instead of hardcoded 8x8 constants. For
// the paper's setup (8x8 mesh, 128-bit links, 125 MHz, half the wires
// toggling) this must land exactly on the published anchors:
//   0.173 pJ -> 155.008 mW   (Innovus-extracted link model)
//   0.532 pJ -> 476.672 mW   (Banerjee et al.)
// and the 40.85% BT reduction scales them to 91.688 / 281.951 mW.
//
// Part 2 (measured): a real fixed-8 campaign on the same mesh, baseline
// vs ordered, with the recorded bit transitions converted to energy and
// average power through hw::EnergyModel — the closed-loop version of the
// same table. The run must show a nonzero power reduction.
//
// Knobs (key=value): rows= cols= packets= window= mode= rate=
//   energy_pj= freq_mhz= threads= seed=

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/config.h"
#include "common/table.h"
#include "hw/energy_model.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"

using namespace nocbt;

namespace {

/// |actual - expected| within slack; complains loudly otherwise.
bool check_anchor(const char* label, double actual, double expected) {
  if (std::fabs(actual - expected) <= 1e-6) return true;
  std::fprintf(stderr, "FAIL: %s = %.6f mW, expected %.6f mW\n", label, actual,
               expected);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = Options::parse(argc, argv);
    opts.check_keys({"rows", "cols", "packets", "window", "mode", "rate",
                     "energy_pj", "freq_mhz", "threads", "seed"});
    const auto rows =
        static_cast<std::int32_t>(opts.get_bounded("rows", 8, 1, 4096));
    const auto cols =
        static_cast<std::int32_t>(opts.get_bounded("cols", 8, 1, 4096));
    const auto packets = static_cast<std::uint32_t>(
        opts.get_bounded("packets", 48, 1, 100'000'000));
    const auto window = static_cast<std::uint32_t>(
        opts.get_bounded("window", 64, 1, 1'000'000));
    const std::string mode_name = opts.get_string("mode", "O2");
    const double energy_pj =
        hw::parse_energy_point(opts.get_string("energy_pj", "innovus"));
    const double freq_mhz = opts.get_double("freq_mhz", 125.0);

    // --- Part 1: static §V-C table, link count derived from the mesh. ---
    std::puts("=== Sec. V-C link power: static toggle-fraction model ===\n");

    noc::NocConfig paper_mesh;  // the paper's setup: 8x8, 128-bit links
    paper_mesh.rows = 8;
    paper_mesh.cols = 8;
    paper_mesh.flit_payload_bits = 128;

    constexpr double kReduction = 0.4085;  // best DarkNet fixed-8 result
    bool anchors_ok = true;
    AsciiTable static_table({"Link model", "pJ/transition", "links",
                             "Power (mW)", "After 40.85% (mW)", "Paper"});
    const struct {
      const char* label;
      double pj;
      double expected_mw;
      const char* paper;
    } points[] = {
        {"Ours (Innovus-extracted)", hw::kInnovusEnergyPj, 155.008,
         "155.008 -> 91.688"},
        {"Banerjee et al. [6]", hw::kBanerjeeEnergyPj, 476.672,
         "476.672 -> 281.951"},
    };
    for (const auto& point : points) {
      const hw::EnergyModel model(hw::EnergyModelConfig{point.pj, 125.0});
      const hw::LinkPowerConfig cfg = model.static_estimate(paper_mesh);
      const double mw = hw::link_power_mw(cfg);
      static_table.add_row(
          {point.label, format_double(point.pj, 3),
           std::to_string(cfg.num_links), format_double(mw, 3),
           format_double(hw::link_power_with_reduction_mw(cfg, kReduction), 3),
           point.paper});
      anchors_ok = check_anchor(point.label, mw, point.expected_mw) &&
                   anchors_ok;
    }
    std::fputs(static_table.render().c_str(), stdout);
    if (!anchors_ok) return 1;

    // --- Part 2: measured power from a fixed-8 campaign on this mesh. ---
    std::printf(
        "\n=== Measured: fixed-8 %s campaign on %dx%d (%.3f pJ, %.0f MHz) "
        "===\n\n",
        mode_name.c_str(), rows, cols, energy_pj, freq_mhz);

    sim::CampaignSpec camp;
    camp.name = "link-power";
    camp.root_seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
    camp.generators = {sim::GeneratorKind::kUniform};
    camp.formats = {DataFormat::kFixed8};
    camp.modes = {ordering::parse_ordering_mode(mode_name)};
    camp.meshes = {sim::MeshSpec{rows, cols, 2}};
    camp.windows = {window};
    camp.base.packets = packets;
    camp.base.injection_rate = opts.get_double("rate", 0.25);
    camp.base.energy_per_transition_pj = energy_pj;
    camp.base.frequency_mhz = freq_mhz;

    sim::RunnerConfig runner;
    runner.threads =
        static_cast<unsigned>(opts.get_bounded("threads", 2, 1, 1024));
    const sim::CampaignResult result = sim::run_campaign(camp, runner);

    AsciiTable measured({"scenario", "O0 BT", "ordered BT", "reduction",
                         "O0 power (mW)", "ordered power (mW)", "saved (mW)"});
    bool reduced = true;
    for (const sim::ScenarioResult& row : result.rows) {
      if (!row.error.empty())
        throw std::runtime_error(row.spec.name + ": " + row.error);
      measured.add_row({row.spec.name, std::to_string(row.bt_baseline),
                        std::to_string(row.bt_ordered),
                        format_percent(row.reduction),
                        format_double(row.power_baseline_mw, 3),
                        format_double(row.power_mw, 3),
                        format_double(row.power_baseline_mw - row.power_mw,
                                      3)});
      // BT reduction and power reduction can disagree: powers average each
      // variant's transitions over its own drain time, so a faster-draining
      // ordered run can burn more watts despite fewer transitions. The
      // reproduction claims both, so gate on both.
      if (!(row.reduction > 0.0) ||
          !(row.power_mw < row.power_baseline_mw)) {
        std::fprintf(stderr,
                     "FAIL: %s shows no BT/power reduction (BT %.4f, "
                     "%.3f -> %.3f mW)\n",
                     row.spec.name.c_str(), row.reduction,
                     row.power_baseline_mw, row.power_mw);
        reduced = false;
      }
    }
    std::fputs(measured.render().c_str(), stdout);
    return reduced ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "link_power_table: %s\n", e.what());
    return 2;
  }
}
