// Cross-engine equivalence at the campaign level: for every traffic
// generator the engine supports (and the full-model accelerator workload),
// run_scenario under the active-set engine must produce the same
// deterministic measurements as under the retained full-scan reference —
// BT counts, drain cycles, delivered packets/flits, latency/hops
// accumulators, energy numbers and the per-link snapshot. The synthetic
// path drives advance_idle interleavings internally (the campaign runner
// jumps idle gaps), so sparse generators double as clock-jump coverage.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "dnn/models.h"
#include "dnn/synthetic_data.h"
#include "noc/trace.h"
#include "sim/campaign.h"
#include "sim/scenario_runner.h"

namespace nocbt::sim {
namespace {

ModelHooks lenet_hooks() {
  ModelHooks hooks;
  hooks.model = [](std::uint64_t seed) {
    Rng rng(seed);
    dnn::Sequential model = dnn::build_lenet(rng);
    Rng fill_rng(seed + 1);
    dnn::fill_weights_trained_like(model, fill_rng, 0.04);
    return model;
  };
  hooks.input = [](std::uint64_t seed) {
    dnn::SyntheticDataset data(dnn::SyntheticDataset::Config{}, seed);
    return data.sample(1).images;
  };
  return hooks;
}

/// Compare every deterministic field of two scenario results. The
/// step-loop profile is engine-specific (that is the point of the engine)
/// and wall-clock is nondeterministic, so neither is compared.
void expect_equivalent(const ScenarioResult& active,
                       const ScenarioResult& full) {
  ASSERT_EQ(active.error, full.error);
  EXPECT_EQ(active.bt_baseline, full.bt_baseline);
  EXPECT_EQ(active.bt_ordered, full.bt_ordered);
  EXPECT_EQ(active.reduction, full.reduction);
  EXPECT_EQ(active.energy_baseline_pj, full.energy_baseline_pj);
  EXPECT_EQ(active.energy_pj, full.energy_pj);
  EXPECT_EQ(active.power_baseline_mw, full.power_baseline_mw);
  EXPECT_EQ(active.power_mw, full.power_mw);
  EXPECT_EQ(active.cycles, full.cycles);
  EXPECT_EQ(active.packets, full.packets);
  EXPECT_EQ(active.flits, full.flits);
  EXPECT_EQ(active.peak_backlog, full.peak_backlog);
  EXPECT_EQ(active.avg_latency, full.avg_latency);
  EXPECT_EQ(active.avg_hops, full.avg_hops);
  EXPECT_EQ(active.drained, full.drained);
  EXPECT_EQ(active.links, full.links);
  // Both engines simulate the same schedule: same stepped and jumped
  // cycles, even though the per-cycle component work differs.
  EXPECT_EQ(active.sim.cycles_stepped, full.sim.cycles_stepped);
  EXPECT_EQ(active.sim.idle_cycles_skipped, full.sim.idle_cycles_skipped);
  EXPECT_EQ(full.sim.components_skipped, 0u);
}

ScenarioSpec base_spec(GeneratorKind gen, std::int32_t rows,
                       std::int32_t cols) {
  ScenarioSpec spec;
  spec.name = "equiv";
  spec.generator = gen;
  spec.rows = rows;
  spec.cols = cols;
  spec.format = DataFormat::kFixed8;
  spec.mode = ordering::OrderingMode::kSeparated;
  spec.window = 32;
  spec.packets = 48;
  spec.injection_rate = 0.2;  // sparse: exercises advance_idle jumps
  spec.seed = 20260726;
  return spec;
}

void run_cross_engine(ScenarioSpec spec, const ModelHooks& hooks) {
  spec.engine_auto = false;  // this suite pins the two *cycle* engines
  spec.engine = noc::SimEngine::kActiveSet;
  const ScenarioResult active = run_scenario(spec, hooks);
  spec.engine = noc::SimEngine::kFullScan;
  const ScenarioResult full = run_scenario(spec, hooks);
  ASSERT_TRUE(active.error.empty()) << active.error;
  expect_equivalent(active, full);
  // The sparse schedules here leave most of the mesh quiescent; the
  // active-set engine must actually be skipping work, not just agreeing.
  EXPECT_GT(active.sim.components_skipped, 0u);
}

class GeneratorEquivalence : public ::testing::TestWithParam<GeneratorKind> {};

TEST_P(GeneratorEquivalence, ActiveSetMatchesFullScan4x4) {
  run_cross_engine(base_spec(GetParam(), 4, 4), ModelHooks{});
}

TEST_P(GeneratorEquivalence, ActiveSetMatchesFullScan6x3) {
  // Non-square mesh (transpose requires square, so it is skipped here).
  if (GetParam() == GeneratorKind::kTranspose) GTEST_SKIP();
  run_cross_engine(base_spec(GetParam(), 6, 3), ModelHooks{});
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorEquivalence,
    ::testing::Values(GeneratorKind::kUniform, GeneratorKind::kTranspose,
                      GeneratorKind::kBitComplement, GeneratorKind::kHotspot,
                      GeneratorKind::kBurst),
    [](const auto& info) { return to_string(info.param); });

TEST(GeneratorEquivalenceReplay, ActiveSetMatchesFullScan) {
  // Replay a synthetic recorded trace (including a self-delivered packet
  // and a long idle gap) through both engines.
  noc::PacketTrace trace;
  trace.record({1, 0, 15, 3, 0, 14, 6, {}, {}});
  trace.record({2, 5, 5, 2, 4, 9, 0, {}, {}});
  trace.record({3, 12, 3, 1, 900, 911, 5, {}, {}});
  trace.record({4, 7, 8, 4, 903, 912, 1, {}, {}});
  const std::string path =
      ::testing::TempDir() + "/engine_equivalence_trace.csv";
  ASSERT_EQ(trace.dump_csv(path), 4u);

  ScenarioSpec spec = base_spec(GeneratorKind::kReplay, 4, 4);
  spec.trace_path = path;
  run_cross_engine(spec, ModelHooks{});
}

// ---- analytical backend ------------------------------------------------

/// Everything the reports are built from must match between the analytical
/// and a cycle engine: BT/energy/power columns, cycles, transport stats,
/// per-link rows. Step-loop counters are backend-specific by design (the
/// analytical engine steps nothing) so `sim` is compared field-by-field
/// where meaningful instead.
void expect_equivalent_transport(const ScenarioResult& ana,
                                 const ScenarioResult& cyc) {
  ASSERT_EQ(ana.error, cyc.error);
  EXPECT_EQ(ana.bt_baseline, cyc.bt_baseline);
  EXPECT_EQ(ana.bt_ordered, cyc.bt_ordered);
  EXPECT_EQ(ana.reduction, cyc.reduction);
  EXPECT_EQ(ana.energy_baseline_pj, cyc.energy_baseline_pj);
  EXPECT_EQ(ana.energy_pj, cyc.energy_pj);
  EXPECT_EQ(ana.power_baseline_mw, cyc.power_baseline_mw);
  EXPECT_EQ(ana.power_mw, cyc.power_mw);
  EXPECT_EQ(ana.cycles, cyc.cycles);
  EXPECT_EQ(ana.packets, cyc.packets);
  EXPECT_EQ(ana.flits, cyc.flits);
  EXPECT_EQ(ana.peak_backlog, cyc.peak_backlog);
  EXPECT_EQ(ana.avg_latency, cyc.avg_latency);
  EXPECT_EQ(ana.avg_hops, cyc.avg_hops);
  EXPECT_EQ(ana.drained, cyc.drained);
  EXPECT_EQ(ana.links, cyc.links);
}

ScenarioResult run_forced(ScenarioSpec spec, noc::SimEngine engine) {
  spec.engine_auto = false;
  spec.engine = engine;
  return run_scenario(spec, ModelHooks{});
}

/// A spec sparse enough that its schedule is congestion-free (each test
/// asserts that by checking the analytical backend accepted it, so a
/// drifted generator cannot silently weaken this suite into comparing an
/// approximation).
ScenarioSpec sparse_spec(GeneratorKind gen, std::int32_t rows,
                         std::int32_t cols, DataFormat format,
                         std::uint32_t window) {
  ScenarioSpec spec = base_spec(gen, rows, cols);
  spec.format = format;
  spec.window = window;
  spec.packets = 24;
  // Mean 5000-cycle gaps: zero-load traffic for every generator at this
  // pinned seed (the tests assert the analytical backend *proved* that,
  // so a drift here fails loudly rather than weakening the comparison).
  spec.injection_rate = 2e-4;
  spec.burst_len = 1;          // kBurst: single-packet bursts, long gaps
  spec.burst_gap = 300;
  return spec;
}

class AnalyticalEquivalence : public ::testing::TestWithParam<GeneratorKind> {
};

TEST_P(AnalyticalEquivalence, MatchesActiveSetByteForByte) {
  for (const auto& [rows, cols] : {std::pair<std::int32_t, std::int32_t>{4, 4},
                                   {6, 3}}) {
    if (GetParam() == GeneratorKind::kTranspose && rows != cols) continue;
    for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32})
      for (const std::uint32_t window : {8u, 32u}) {
        const ScenarioSpec spec =
            sparse_spec(GetParam(), rows, cols, format, window);
        const ScenarioResult ana =
            run_forced(spec, noc::SimEngine::kAnalytical);
        ASSERT_TRUE(ana.error.empty())
            << rows << "x" << cols << " w" << window << ": " << ana.error;
        ASSERT_EQ(ana.sim.engine, noc::SimEngine::kAnalytical);
        EXPECT_EQ(ana.sim.cycles_stepped, 0u);
        const ScenarioResult active =
            run_forced(spec, noc::SimEngine::kActiveSet);
        EXPECT_EQ(active.sim.engine, noc::SimEngine::kActiveSet);
        expect_equivalent_transport(ana, active);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, AnalyticalEquivalence,
    ::testing::Values(GeneratorKind::kUniform, GeneratorKind::kTranspose,
                      GeneratorKind::kBitComplement, GeneratorKind::kHotspot,
                      GeneratorKind::kBurst),
    [](const auto& info) { return to_string(info.param); });

TEST(AnalyticalEquivalenceReplay, MatchesActiveSet) {
  noc::PacketTrace trace;
  trace.record({1, 0, 15, 3, 0, 14, 6, {}, {}});
  trace.record({2, 5, 5, 2, 60, 65, 0, {}, {}});  // self-delivered
  trace.record({3, 12, 3, 1, 900, 911, 5, {}, {}});
  trace.record({4, 7, 8, 4, 960, 972, 1, {}, {}});
  const std::string path =
      ::testing::TempDir() + "/analytical_equivalence_trace.csv";
  ASSERT_EQ(trace.dump_csv(path), 4u);

  ScenarioSpec spec = base_spec(GeneratorKind::kReplay, 4, 4);
  spec.trace_path = path;
  const ScenarioResult ana = run_forced(spec, noc::SimEngine::kAnalytical);
  ASSERT_TRUE(ana.error.empty()) << ana.error;
  ASSERT_EQ(ana.sim.engine, noc::SimEngine::kAnalytical);
  expect_equivalent_transport(ana, run_forced(spec, noc::SimEngine::kActiveSet));
}

TEST(EngineAutoSelect, PicksAnalyticalWhenCongestionFree) {
  ScenarioSpec spec =
      sparse_spec(GeneratorKind::kUniform, 4, 4, DataFormat::kFixed8, 32);
  ASSERT_TRUE(spec.engine_auto);  // the default policy
  const ScenarioResult autosel = run_scenario(spec, ModelHooks{});
  ASSERT_TRUE(autosel.error.empty()) << autosel.error;
  EXPECT_EQ(autosel.sim.engine, noc::SimEngine::kAnalytical);
  // Auto-selection is result-invisible: identical to forcing analytical.
  EXPECT_TRUE(autosel == run_forced(spec, noc::SimEngine::kAnalytical));
}

TEST(EngineAutoSelect, FallsBackToCycleEngineUnderContention) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform, 4, 4);
  spec.injection_rate = 2.0;  // saturating: schedules overlap heavily
  spec.packets = 64;
  const ScenarioResult autosel = run_scenario(spec, ModelHooks{});
  ASSERT_TRUE(autosel.error.empty()) << autosel.error;
  EXPECT_EQ(autosel.sim.engine, noc::SimEngine::kActiveSet);
  EXPECT_GT(autosel.sim.cycles_stepped, 0u);
  EXPECT_TRUE(autosel == run_forced(spec, noc::SimEngine::kActiveSet));
  // The fallback honors the spec's cycle engine choice.
  ScenarioSpec full = spec;
  full.engine = noc::SimEngine::kFullScan;
  const ScenarioResult fs = run_scenario(full, ModelHooks{});
  EXPECT_EQ(fs.sim.engine, noc::SimEngine::kFullScan);
}

TEST(EngineAutoSelect, FallbackRecordsWhyInEngineReason) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform, 4, 4);
  spec.injection_rate = 2.0;
  spec.packets = 64;
  const ScenarioResult contended = run_scenario(spec, ModelHooks{});
  ASSERT_TRUE(contended.error.empty()) << contended.error;
  EXPECT_EQ(contended.sim.engine, noc::SimEngine::kActiveSet);
  // The analytical backend's first clash: which link, at which cycle.
  EXPECT_EQ(contended.engine_reason.rfind("link ", 0), 0u)
      << contended.engine_reason;
  EXPECT_NE(contended.engine_reason.find("still busy at cycle"),
            std::string::npos)
      << contended.engine_reason;
  // Result-invisible, like wall-clock: the row still equals a forced run.
  EXPECT_TRUE(contended == run_forced(spec, noc::SimEngine::kActiveSet));

  ScenarioSpec shallow = spec;
  shallow.vc_buffer_depth = 1;  // below the credit round trip
  EXPECT_NE(run_scenario(shallow, ModelHooks{})
                .engine_reason.find("vc_buffer_depth"),
            std::string::npos);

  const ScenarioResult sparse = run_scenario(
      sparse_spec(GeneratorKind::kUniform, 4, 4, DataFormat::kFixed8, 32),
      ModelHooks{});
  ASSERT_EQ(sparse.sim.engine, noc::SimEngine::kAnalytical) << sparse.error;
  EXPECT_TRUE(sparse.engine_reason.empty()) << sparse.engine_reason;
  // Forcing a cycle engine attempts nothing, so nothing fell back.
  EXPECT_TRUE(run_forced(spec, noc::SimEngine::kActiveSet).engine_reason.empty());
}

TEST(EngineAutoSelect, ForcedAnalyticalFailsLoudlyUnderContention) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform, 4, 4);
  spec.injection_rate = 2.0;
  spec.packets = 64;
  const ScenarioResult forced = run_forced(spec, noc::SimEngine::kAnalytical);
  ASSERT_FALSE(forced.error.empty());
  EXPECT_NE(forced.error.find("engine=analytical"), std::string::npos)
      << forced.error;
  EXPECT_NE(forced.error.find("congestion-free"), std::string::npos)
      << forced.error;
}

TEST(EngineAutoSelect, ForcedAnalyticalRejectsModelWorkloads) {
  ScenarioSpec spec = base_spec(GeneratorKind::kModel, 4, 4);
  spec.engine_auto = false;
  spec.engine = noc::SimEngine::kAnalytical;
  const ScenarioResult result = run_scenario(spec, lenet_hooks());
  ASSERT_FALSE(result.error.empty());
  EXPECT_NE(result.error.find("cycle engine"), std::string::npos)
      << result.error;
}

TEST(GeneratorEquivalenceModel, LenetInferenceMatchesFullScan) {
  // Full accelerator inference (NocDnaPlatform) on both engines: sinks
  // inject result packets from inside delivery callbacks, multiple MCs
  // stream concurrently, and the final drain runs through the config knob.
  ScenarioSpec spec = base_spec(GeneratorKind::kModel, 4, 4);
  spec.num_mcs = 2;
  run_cross_engine(spec, lenet_hooks());
}

}  // namespace
}  // namespace nocbt::sim
