// Placement traffic through the campaign runner: spec validation, schedule
// recording determinism, and the dump/replay contract — a placed or
// synthetic workload written to a PacketTrace and replayed must reproduce
// the direct run's measurements exactly, on the cycle engine and (for a
// congestion-free single-PE placement) the analytical backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "accel/flitization.h"
#include "noc/routing.h"
#include "noc/trace.h"
#include "sim/campaign.h"
#include "sim/scenario_runner.h"
#include "sim/traffic_gen.h"

namespace nocbt::sim {
namespace {

ScenarioSpec placed_spec() {
  ScenarioSpec spec;
  spec.name = "placed";
  spec.generator = GeneratorKind::kPlacement;
  spec.model = "lenet";
  spec.placement = "rowmajor";
  spec.tiles_per_layer = 2;
  spec.rows = 4;
  spec.cols = 4;
  spec.num_mcs = 2;
  spec.format = DataFormat::kFixed8;
  spec.mode = ordering::OrderingMode::kSeparated;
  spec.window = 32;
  spec.seed = 99;
  spec.model_seed = 5;
  spec.engine_auto = false;
  spec.engine = noc::SimEngine::kActiveSet;
  return spec;
}

/// Every deterministic measurement of two runs must agree; the step-loop
/// profile and wall-clock are engine/host specific and excluded.
void expect_same_measurements(const ScenarioResult& a,
                              const ScenarioResult& b) {
  ASSERT_EQ(a.error, b.error);
  EXPECT_EQ(a.bt_baseline, b.bt_baseline);
  EXPECT_EQ(a.bt_ordered, b.bt_ordered);
  EXPECT_EQ(a.reduction, b.reduction);
  EXPECT_EQ(a.energy_baseline_pj, b.energy_baseline_pj);
  EXPECT_EQ(a.energy_pj, b.energy_pj);
  EXPECT_EQ(a.power_baseline_mw, b.power_baseline_mw);
  EXPECT_EQ(a.power_mw, b.power_mw);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.flits, b.flits);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.links, b.links);
}

TEST(PlacementSpec, ValidateGatesThePlacementKnobs) {
  ScenarioSpec good = placed_spec();
  EXPECT_NO_THROW(good.validate());

  ScenarioSpec bad_model = placed_spec();
  bad_model.model = "vgg";
  EXPECT_THROW(bad_model.validate(), std::invalid_argument);

  ScenarioSpec bad_policy = placed_spec();
  bad_policy.placement = "zigzag";
  EXPECT_THROW(bad_policy.validate(), std::invalid_argument);

  ScenarioSpec bad_tiles = placed_spec();
  bad_tiles.tiles_per_layer = 0;
  EXPECT_THROW(bad_tiles.validate(), std::invalid_argument);

  // All-MC meshes leave no PE to place tiles on.
  ScenarioSpec bad_mcs = placed_spec();
  bad_mcs.num_mcs = bad_mcs.rows * bad_mcs.cols;
  EXPECT_THROW(bad_mcs.validate(), std::invalid_argument);
}

TEST(PlacementTraffic, RecordedScheduleIsDeterministicAndCarriesPayloads) {
  const ScenarioSpec spec = placed_spec();
  const noc::PacketTrace a = record_schedule(spec);
  const noc::PacketTrace b = record_schedule(spec);
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  const accel::FlitLayout layout{spec.values_per_flit,
                                 value_bits(spec.format)};
  const noc::MeshShape mesh(spec.rows, spec.cols);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const noc::TraceEvent& ea = a.events()[i];
    const noc::TraceEvent& eb = b.events()[i];
    EXPECT_TRUE(ea.has_payload()) << i;
    EXPECT_EQ(ea.src, eb.src);
    EXPECT_EQ(ea.dst, eb.dst);
    EXPECT_EQ(ea.inject_cycle, eb.inject_cycle);
    EXPECT_EQ(ea.num_flits, eb.num_flits);
    EXPECT_EQ(ea.weights, eb.weights);
    EXPECT_EQ(ea.inputs, eb.inputs);
    // Zero-load timing: eject = inject + hops + flits.
    EXPECT_EQ(ea.num_flits,
              accel::flits_needed(static_cast<std::uint32_t>(ea.weights.size()),
                                  /*has_bias=*/false, layout))
        << i;
    EXPECT_EQ(ea.hops, mesh.manhattan(ea.src, ea.dst)) << i;
    EXPECT_EQ(ea.eject_cycle, ea.inject_cycle + ea.hops + ea.num_flits) << i;
  }

  // The payload columns survive a CSV round trip.
  const std::string path = testing::TempDir() + "nocbt_placed_schedule.csv";
  ASSERT_EQ(a.dump_csv(path), a.size());
  const noc::PacketTrace loaded = noc::PacketTrace::load_csv(path);
  ASSERT_EQ(loaded.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const noc::TraceEvent& ea = a.events()[i];
    const noc::TraceEvent& el = loaded.events()[i];
    EXPECT_EQ(ea.packet_id, el.packet_id);
    EXPECT_EQ(ea.src, el.src);
    EXPECT_EQ(ea.dst, el.dst);
    EXPECT_EQ(ea.num_flits, el.num_flits);
    EXPECT_EQ(ea.inject_cycle, el.inject_cycle);
    EXPECT_EQ(ea.eject_cycle, el.eject_cycle);
    EXPECT_EQ(ea.hops, el.hops);
    EXPECT_EQ(ea.weights, el.weights);
    EXPECT_EQ(ea.inputs, el.inputs);
  }
}

TEST(PlacementTraffic, ReplayedTraceMatchesTheDirectRunOnTheCycleEngine) {
  // trace_out= promises a byte-identical replay of any placed or synthetic
  // schedule, so every kind a trace can be dumped from takes the trip.
  for (const GeneratorKind kind :
       {GeneratorKind::kPlacement, GeneratorKind::kUniform,
        GeneratorKind::kTranspose, GeneratorKind::kBitComplement,
        GeneratorKind::kHotspot, GeneratorKind::kBurst}) {
    SCOPED_TRACE(to_string(kind));
    ScenarioSpec direct_spec = placed_spec();
    direct_spec.generator = kind;
    direct_spec.packets = 64;
    const ScenarioResult direct = run_scenario(direct_spec, ModelHooks{});
    ASSERT_TRUE(direct.error.empty()) << direct.error;
    ASSERT_GT(direct.bt_baseline, 0u);
    // The ordering must change the BT, or "equal BT" would be vacuous. It
    // need not lower it: on some synthetic streams an ordering raises the
    // NoC BT by a few percent.
    ASSERT_NE(direct.bt_ordered, direct.bt_baseline);

    const std::string path = testing::TempDir() + "nocbt_replay_active_" +
                             to_string(kind) + ".csv";
    const noc::PacketTrace trace = record_schedule(direct_spec);
    ASSERT_EQ(trace.dump_csv(path), trace.size());
    EXPECT_EQ(direct.packets, trace.size());

    ScenarioSpec replay_spec = direct_spec;
    replay_spec.generator = GeneratorKind::kReplay;
    replay_spec.trace_path = path;
    const ScenarioResult replayed = run_scenario(replay_spec, ModelHooks{});
    ASSERT_TRUE(replayed.error.empty()) << replayed.error;
    expect_same_measurements(direct, replayed);
  }
}

TEST(PlacementTraffic, ReplayedTraceMatchesTheDirectRunOnTheAnalyticalEngine) {
  // A single-PE chain placement serializes every source, so the schedule
  // is provably congestion-free and the forced analytical backend must
  // accept it — for the direct run and for its recorded replay alike.
  ScenarioSpec direct_spec = placed_spec();
  direct_spec.rows = 1;
  direct_spec.cols = 2;
  direct_spec.num_mcs = 1;
  direct_spec.tiles_per_layer = 1;
  direct_spec.engine_auto = false;
  direct_spec.engine = noc::SimEngine::kAnalytical;
  const ScenarioResult direct = run_scenario(direct_spec, ModelHooks{});
  ASSERT_TRUE(direct.error.empty()) << direct.error;
  EXPECT_EQ(direct.sim.engine, noc::SimEngine::kAnalytical);

  const std::string path =
      testing::TempDir() + "nocbt_placed_replay_analytical.csv";
  const noc::PacketTrace trace = record_schedule(direct_spec);
  ASSERT_EQ(trace.dump_csv(path), trace.size());

  ScenarioSpec replay_spec = direct_spec;
  replay_spec.generator = GeneratorKind::kReplay;
  replay_spec.trace_path = path;
  const ScenarioResult replayed = run_scenario(replay_spec, ModelHooks{});
  ASSERT_TRUE(replayed.error.empty()) << replayed.error;
  EXPECT_EQ(replayed.sim.engine, noc::SimEngine::kAnalytical);
  expect_same_measurements(direct, replayed);
}

}  // namespace
}  // namespace nocbt::sim
