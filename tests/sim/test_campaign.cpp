// Tests for the campaign engine: grid expansion, deterministic seeding,
// thread-count invariance, ordering effectiveness, reports, and error
// containment.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/config.h"
#include "sim/campaign.h"
#include "sim/campaign_config.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"
#include "sim/scenario_runner.h"

namespace nocbt::sim {
namespace {

CampaignSpec small_campaign() {
  CampaignSpec camp;
  camp.name = "unit";
  camp.root_seed = 99;
  camp.generators = {GeneratorKind::kUniform, GeneratorKind::kHotspot};
  camp.formats = {DataFormat::kFloat32, DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {16};
  camp.base.packets = 24;
  camp.base.injection_rate = 0.5;
  return camp;
}

TEST(MeshSpec, ParsesAndRejects) {
  EXPECT_EQ(parse_mesh_spec("4x4").rows, 4);
  EXPECT_EQ(parse_mesh_spec("4x4").cols, 4);
  EXPECT_EQ(parse_mesh_spec("4x4").mcs, 2);  // default MC count
  const MeshSpec m = parse_mesh_spec("8x8mc4");
  EXPECT_EQ(m.rows, 8);
  EXPECT_EQ(m.cols, 8);
  EXPECT_EQ(m.mcs, 4);
  EXPECT_EQ(parse_mesh_spec("2X3MC1").cols, 3);
  EXPECT_THROW((void)parse_mesh_spec(""), std::invalid_argument);
  EXPECT_THROW((void)parse_mesh_spec("4"), std::invalid_argument);
  EXPECT_THROW((void)parse_mesh_spec("4x"), std::invalid_argument);
  EXPECT_THROW((void)parse_mesh_spec("4x4mc"), std::invalid_argument);
  EXPECT_THROW((void)parse_mesh_spec("4x4xx2"), std::invalid_argument);
  // Dimension cap guards rows*cols int32 arithmetic downstream.
  EXPECT_THROW((void)parse_mesh_spec("100000x100000"), std::invalid_argument);
}

TEST(Campaign, ExpansionCoversTheGridDeterministically) {
  const CampaignSpec camp = small_campaign();
  const auto scenarios = camp.expand();
  ASSERT_EQ(scenarios.size(), 2u * 2u * 2u * 1u * 1u);

  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& s : scenarios) {
    names.insert(s.name);
    seeds.insert(s.seed);
    EXPECT_EQ(s.packets, camp.base.packets);  // base knobs carried through
  }
  EXPECT_EQ(names.size(), scenarios.size()) << "scenario names must be unique";
  // Seeds identify *traffic streams*, not scenarios: the two mode rows of
  // each (generator, format) point share one seed so their pre-ordering
  // schedules are byte-identical, and distinct streams get distinct seeds.
  EXPECT_EQ(seeds.size(), scenarios.size() / camp.modes.size())
      << "one seed per mode-independent traffic stream";
  for (const auto& a : scenarios) {
    for (const auto& b : scenarios) {
      if (a.generator == b.generator && a.format == b.format &&
          a.window == b.window) {
        EXPECT_EQ(a.seed, b.seed)
            << "mode rows of one stream must share their seed";
      }
    }
  }

  const auto again = camp.expand();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].name, again[i].name);
    EXPECT_EQ(scenarios[i].seed, again[i].seed);
  }
}

TEST(Campaign, NamesStayUniqueAcrossIgnoredAxes) {
  // mcs is meaningless for synthetic traffic and window for model
  // workloads, but both must still appear in names or grid points that
  // differ only on an ignored axis would collide.
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform, GeneratorKind::kModel};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  camp.meshes = {MeshSpec{4, 4, 2}, MeshSpec{4, 4, 4}};
  camp.windows = {16, 32};
  const auto scenarios = camp.expand();
  std::set<std::string> names;
  for (const auto& s : scenarios) names.insert(s.name);
  EXPECT_EQ(names.size(), scenarios.size());
}

TEST(Campaign, ReplicatesGetDistinctSeeds) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  camp.replicates = 3;
  const auto scenarios = camp.expand();
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_NE(scenarios[0].seed, scenarios[1].seed);
  EXPECT_NE(scenarios[1].seed, scenarios[2].seed);
  EXPECT_NE(scenarios[0].name, scenarios[1].name);  // /r0, /r1, /r2 suffixes
}

TEST(Campaign, BaselineModeShowsZeroReduction) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline};
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  const ScenarioResult& row = result.rows[0];
  EXPECT_TRUE(row.error.empty()) << row.error;
  EXPECT_TRUE(row.drained);
  EXPECT_EQ(row.bt_baseline, row.bt_ordered);
  EXPECT_EQ(row.reduction, 0.0);
  EXPECT_EQ(row.packets, 24u);
  EXPECT_GT(row.bt_baseline, 0u);
  EXPECT_GT(row.cycles, 0u);
  EXPECT_GT(row.avg_hops, 0.0);
}

TEST(Campaign, OrderingReducesBtOnLaplaceFixed8) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  camp.base.packets = 64;
  // 64 pairs -> 8 flits per packet: enough within-packet transitions for
  // the sort to win over the adverse sorted-tail -> sorted-head boundary
  // between packets (a 2-flit packet is all boundary and can regress).
  camp.windows = {64};
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  const ScenarioResult& row = result.rows[0];
  ASSERT_TRUE(row.error.empty()) << row.error;
  EXPECT_LT(row.bt_ordered, row.bt_baseline);
  EXPECT_GT(row.reduction, 0.0);
}

TEST(Campaign, SparseScheduleFastForwardsIdleGaps) {
  // burst_gap dwarfs max_cycles, but idle gaps are skipped (only active
  // steps count toward the stall guard), so the scenario still drains.
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kBurst};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  camp.base.packets = 16;
  camp.base.burst_len = 4;
  camp.base.burst_gap = 1'000'000;
  camp.base.max_cycles = 20'000;
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  const ScenarioResult& row = result.rows[0];
  EXPECT_TRUE(row.error.empty()) << row.error;
  EXPECT_TRUE(row.drained);
  EXPECT_EQ(row.packets, 16u);
  EXPECT_GT(row.cycles, 3'000'000u);  // clock still reflects schedule time
}

TEST(Campaign, StallGuardFailsLoudlyAndNamesTheScenario) {
  // Regression: hitting the max_cycles stall guard must produce an error
  // row whose diagnostic names the scenario and the guard value — not a
  // silent truncation. Saturating traffic keeps the schedule contended so
  // the cycle engine (not the analytical fast path) is what stalls.
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  camp.base.packets = 64;
  camp.base.injection_rate = 4.0;
  camp.base.max_cycles = 3;  // tiny: trips immediately
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  const ScenarioResult& row = result.rows[0];
  EXPECT_FALSE(row.drained);
  ASSERT_FALSE(row.error.empty());
  EXPECT_NE(row.error.find(row.spec.name), std::string::npos) << row.error;
  EXPECT_NE(row.error.find("max_cycles"), std::string::npos) << row.error;
  EXPECT_NE(row.error.find("3"), std::string::npos) << row.error;
  // The stalled row renders as a failure in the table, not as "ok".
  const std::string table = render_table(result);
  EXPECT_EQ(table.find(" ok"), std::string::npos) << table;
  // max_cycles = 0 cannot even start: rejected up front.
  camp.base.max_cycles = 0;
  const auto zero = run_campaign(camp);
  EXPECT_NE(zero.rows[0].error.find("max_cycles"), std::string::npos)
      << zero.rows[0].error;
}

TEST(Campaign, NanRateIsRejected) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline};
  camp.base.injection_rate = std::numeric_limits<double>::quiet_NaN();
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NE(result.rows[0].error.find("injection_rate"), std::string::npos)
      << result.rows[0].error;
}

TEST(Campaign, ThreadCountDoesNotChangeResults) {
  const CampaignSpec camp = small_campaign();
  RunnerConfig serial;
  serial.threads = 1;
  RunnerConfig parallel;
  parallel.threads = 4;
  const CampaignResult a = run_campaign(camp, serial);
  const CampaignResult b = run_campaign(camp, parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_TRUE(a.rows[i].error.empty()) << a.rows[i].error;
    EXPECT_TRUE(a.rows[i] == b.rows[i]) << a.rows[i].spec.name;
  }
  // And the machine-readable reports are byte-identical.
  EXPECT_EQ(json_report(camp, a), json_report(camp, b));
}

TEST(Campaign, OnResultSeesEveryScenario) {
  const CampaignSpec camp = small_campaign();
  RunnerConfig runner;
  runner.threads = 2;
  std::set<std::string> seen;
  std::size_t total_seen = 0;
  runner.on_result = [&](const ScenarioResult& row, std::size_t done,
                         std::size_t total) {
    seen.insert(row.spec.name);
    total_seen = total;
    EXPECT_LE(done, total);
  };
  const auto result = run_campaign(camp, runner);
  EXPECT_EQ(seen.size(), result.rows.size());
  EXPECT_EQ(total_seen, result.rows.size());
}

TEST(Campaign, BadScenarioIsContainedAsErrorRow) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kReplay, GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  camp.base.trace_path = "/nonexistent/trace.csv";
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_FALSE(result.rows[0].error.empty());  // replay fails to load
  EXPECT_TRUE(result.rows[1].error.empty());   // uniform still runs
  EXPECT_GT(result.rows[1].bt_baseline, 0u);
}

TEST(Campaign, ModelWorkloadWithoutHooksFailsCleanly) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kModel};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kAffiliated};
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NE(result.rows[0].error.find("hooks"), std::string::npos)
      << result.rows[0].error;
}

TEST(Campaign, JsonReportIsWellFormedAndComplete) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  const auto result = run_campaign(camp);
  const std::string json = json_report(camp, result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"campaign\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"root_seed\":\"99\""), std::string::npos);
  for (const auto& row : result.rows) {
    EXPECT_NE(json.find("\"name\":\"" + row.spec.name + "\""),
              std::string::npos);
    // Seeds are strings: 64-bit values exceed JSON's exact double range.
    EXPECT_NE(
        json.find("\"seed\":\"" + std::to_string(row.spec.seed) + "\""),
        std::string::npos);
  }
  EXPECT_NE(json.find("\"error\":null"), std::string::npos);
}

TEST(Campaign, CsvAndJsonReportsHitDisk) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  const auto result = run_campaign(camp);

  const std::string csv_path = testing::TempDir() + "nocbt_campaign_unit.csv";
  EXPECT_EQ(write_csv_report(csv_path, camp, result), result.rows.size());

  const std::string json_path = testing::TempDir() + "nocbt_campaign_unit.json";
  write_json_report(json_path, camp, result);
  std::ifstream in(json_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json_report(camp, result) + "\n");
}

TEST(Campaign, EveryStrategyModeRunsAndAppearsInTheReportTable) {
  // The strategy-backed modes added by the ordering registry must be
  // sweepable like O0/O1/O2: every scenario completes and its mode key
  // shows up in the rendered report.
  CampaignSpec camp;
  camp.name = "strategies";
  camp.root_seed = 7;
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kChain,
                ordering::OrderingMode::kHdChain,
                ordering::OrderingMode::kBucket,
                ordering::OrderingMode::kHybrid,
                ordering::OrderingMode::kTwoFlit};
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {16};
  camp.base.packets = 8;
  camp.base.injection_rate = 0.5;

  const CampaignResult result = run_campaign(camp, RunnerConfig{});
  ASSERT_EQ(result.rows.size(), camp.modes.size());
  for (const ScenarioResult& row : result.rows) {
    EXPECT_TRUE(row.error.empty()) << row.spec.name << ": " << row.error;
    EXPECT_TRUE(row.drained) << row.spec.name;
    EXPECT_GT(row.bt_ordered, 0u) << row.spec.name;
  }
  const std::string table = render_table(result);
  for (const ordering::OrderingMode mode : camp.modes)
    EXPECT_NE(table.find("/" + ordering::short_mode_name(mode) + "/"),
              std::string::npos)
        << "mode " << ordering::short_mode_name(mode) << " missing from table";
}

TEST(Campaign, EnergyColumnsFollowBtCounts) {
  // The measured energy/power columns are pure arithmetic over the BT
  // counts at the spec's pJ point and clock — pin the relations.
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  camp.base.packets = 64;
  camp.windows = {64};
  camp.base.energy_per_transition_pj = 0.5;  // easy arithmetic
  camp.base.frequency_mhz = 200.0;
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  const ScenarioResult& row = result.rows[0];
  ASSERT_TRUE(row.error.empty()) << row.error;
  EXPECT_DOUBLE_EQ(row.energy_baseline_pj,
                   static_cast<double>(row.bt_baseline) * 0.5);
  EXPECT_DOUBLE_EQ(row.energy_pj, static_cast<double>(row.bt_ordered) * 0.5);
  ASSERT_GT(row.cycles, 0u);
  // P(mW) = BT * pJ * f_MHz / cycles / 1e3 (ordered run over its cycles).
  EXPECT_DOUBLE_EQ(row.power_mw, static_cast<double>(row.bt_ordered) * 0.5 *
                                     200.0 /
                                     static_cast<double>(row.cycles) / 1e3);
  EXPECT_GT(row.power_baseline_mw, 0.0);
  // Ordering reduces BT on laplace fixed-8, so energy must drop with it.
  EXPECT_LT(row.energy_pj, row.energy_baseline_pj);
}

TEST(Campaign, PerLinkRowsCoverTheMeshAndSumToScopedBt) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated};
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  const ScenarioResult& row = result.rows[0];
  ASSERT_TRUE(row.error.empty()) << row.error;

  // A 4x4 mesh taps 16 injection + 16 ejection + 48 inter-router links.
  ASSERT_EQ(row.links.size(), 16u + 16u + 48u);
  std::uint64_t scoped_bt = 0;
  std::uint64_t delivered_flits = 0;
  for (const hw::LinkEnergyRow& link : row.links) {
    EXPECT_DOUBLE_EQ(link.energy_pj,
                     static_cast<double>(link.transitions) *
                         row.spec.energy_per_transition_pj);
    if (link.info.kind != noc::LinkKind::kInjection)
      scoped_bt += link.transitions;
    if (link.info.kind == noc::LinkKind::kEjection)
      delivered_flits += link.flits;
  }
  // Default scope (inter-router + ejection) must reproduce bt_ordered.
  EXPECT_EQ(scoped_bt, row.bt_ordered);
  // Every delivered flit crossed exactly one ejection link.
  EXPECT_EQ(delivered_flits, row.flits);
}

TEST(Campaign, HeatmapCsvHitsDisk) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  const auto result = run_campaign(camp);
  std::size_t expected_rows = 0;
  for (const auto& row : result.rows) expected_rows += row.links.size();
  ASSERT_GT(expected_rows, 0u);

  const std::string path = testing::TempDir() + "nocbt_campaign_heatmap.csv";
  EXPECT_EQ(write_link_heatmap_csv(path, camp, result), expected_rows);
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "scenario,link_id,kind,src,dst,src_port,flits,bt,energy_pj");
  std::size_t data_lines = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++data_lines;
  EXPECT_EQ(data_lines, expected_rows);
}

TEST(Campaign, BadEnergyKnobsAreContainedAsErrorRows) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline};
  camp.base.energy_per_transition_pj = 0.0;
  const auto result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NE(result.rows[0].error.find("energy_per_transition_pj"),
            std::string::npos)
      << result.rows[0].error;
}

TEST(Campaign, RenderTableHasOneRowPerScenario) {
  const CampaignSpec camp = small_campaign();
  const auto result = run_campaign(camp, RunnerConfig{.threads = 2});
  const std::string table = render_table(result);
  for (const auto& row : result.rows)
    EXPECT_NE(table.find(row.spec.name), std::string::npos) << row.spec.name;
}

TEST(Campaign, ProfileCsvCarriesStepLoopCounters) {
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  const auto result = run_campaign(camp);

  const std::string path = testing::TempDir() + "nocbt_campaign_profile.csv";
  EXPECT_EQ(write_profile_csv(path, camp, result), result.rows.size());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "scenario,engine,wall_ms_baseline,wall_ms_ordered,cycles,"
            "cycles_stepped,idle_cycles_skipped,components_stepped,"
            "components_skipped,skip_ratio,engine_reason");
  std::size_t data_lines = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++data_lines;
  EXPECT_EQ(data_lines, result.rows.size());

  for (const auto& row : result.rows) {
    ASSERT_TRUE(row.error.empty()) << row.error;
    // The active-set engine ran and skipped quiescent components; its
    // stepped+jumped cycles account for the scenario's whole drain time.
    EXPECT_EQ(row.spec.engine, noc::SimEngine::kActiveSet);
    EXPECT_GT(row.sim.components_skipped, 0u);
    EXPECT_EQ(row.sim.cycles_stepped + row.sim.idle_cycles_skipped,
              row.cycles);
    EXPECT_GT(row.sim.skip_ratio(), 0.0);
    EXPECT_LT(row.sim.skip_ratio(), 1.0);
  }
}

TEST(Campaign, ProfilerCountersAreThreadInvariant) {
  // Wall-clock differs run to run; the SimProfile counters must not.
  CampaignSpec camp = small_campaign();
  camp.generators = {GeneratorKind::kUniform};
  const auto serial = run_campaign(camp);
  const auto parallel = run_campaign(camp, RunnerConfig{.threads = 4});
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_TRUE(serial.rows[i].sim == parallel.rows[i].sim)
        << serial.rows[i].spec.name;
    EXPECT_TRUE(serial.rows[i] == parallel.rows[i])
        << serial.rows[i].spec.name;
  }
}

TEST(SharedSchedule, DerivedRejectsASecondFormat) {
  // The derived block is built once, for the first caller's format; the
  // schedule cache key pins the format, so another one is a caller bug.
  SharedSchedule sched;
  sched.requests = {InjectionRequest{0, 0, 1, {0x0F, 0xF0}, {0x01, 0x02}},
                    InjectionRequest{4, 1, 0, {0xFF, 0x00}, {0x03, 0x04}}};
  const SharedSchedule::Derived& d = sched.derived(DataFormat::kFixed8);
  EXPECT_TRUE(d.uniform);
  EXPECT_EQ(&sched.derived(DataFormat::kFixed8), &d);
  try {
    (void)sched.derived(DataFormat::kFloat32);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fixed-8"), std::string::npos) << what;
    EXPECT_NE(what.find("float-32"), std::string::npos) << what;
  }
}

TEST(SharedSchedule, TimingRunsOnceAndRejectsAnotherSpec) {
  SharedSchedule sched;
  sched.requests = {InjectionRequest{0, 0, 5, {0x0F, 0xF0}, {0x01, 0x02}},
                    InjectionRequest{9, 3, 12, {0xFF, 0x00}, {0x03, 0x04}}};
  ScenarioSpec spec;
  spec.name = "timing";
  spec.format = DataFormat::kFixed8;
  bool built = false;
  const SharedSchedule::Timing& timing = sched.timing(spec, &built);
  EXPECT_TRUE(built);
  ASSERT_FALSE(timing.error);
  EXPECT_TRUE(timing.baseline.drained);
  EXPECT_EQ(timing.order.packets(), 2u);
  EXPECT_EQ(timing.order.flits(), 2u);
  EXPECT_TRUE(timing.engine_reason.empty()) << timing.engine_reason;
  // Two far-apart packets: the analytical engine times them.
  EXPECT_EQ(timing.baseline.sim.engine, noc::SimEngine::kAnalytical);

  ScenarioSpec other_mode = spec;
  other_mode.mode = ordering::OrderingMode::kHybrid;
  EXPECT_EQ(&sched.timing(other_mode, &built), &timing);
  EXPECT_FALSE(built);
  ScenarioSpec other_vcs = spec;
  other_vcs.num_vcs = 2;
  EXPECT_THROW((void)sched.timing(other_vcs), std::logic_error);
}

ScenarioSpec uniform_4x4(double rate) {
  ScenarioSpec spec;
  spec.generator = GeneratorKind::kUniform;
  spec.packets = 64;
  spec.injection_rate = rate;
  return spec;
}

TEST(ScheduleCache, KeysDoublesExactly) {
  // Six-decimal formatting printed both rates as 0.000000, so one cache
  // handed the second spec the first spec's four-times-slower schedule.
  ScheduleCache cache(2);
  const SharedSchedulePtr slow = cache.get(uniform_4x4(1e-7));
  const SharedSchedulePtr fast = cache.get(uniform_4x4(4e-7));
  EXPECT_NE(slow.get(), fast.get());
  EXPECT_GT(slow->requests.back().cycle, 2 * fast->requests.back().cycle);
}

TEST(ScheduleCache, KeysEveryKnobTheTimingRunReads) {
  const ScenarioSpec base = uniform_4x4(0.5);
  const std::vector<void (*)(ScenarioSpec&)> knobs{
      [](ScenarioSpec& s) { s.num_vcs = 2; },
      [](ScenarioSpec& s) { s.vc_buffer_depth = 8; },
      [](ScenarioSpec& s) { s.engine = noc::SimEngine::kFullScan; },
      [](ScenarioSpec& s) { s.engine_auto = false; },
      [](ScenarioSpec& s) { s.max_cycles = 99; }};
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    ScenarioSpec changed = base;
    knobs[k](changed);
    ScheduleCache cache(2);
    EXPECT_NE(cache.get(base).get(), cache.get(changed).get()) << "knob " << k;
  }
  // Mode, name and the energy knobs leave schedule and timing alone.
  ScenarioSpec shared = base;
  shared.name = "other";
  shared.mode = ordering::OrderingMode::kChain;
  shared.energy_per_transition_pj = 0.532;
  ScheduleCache cache(2);
  EXPECT_EQ(cache.get(base).get(), cache.get(shared).get());
}

TEST(ScheduleCache, DropsAnEntryAfterTheLastRowCarryingIt) {
  // A shard's slice: two of a grid point's three mode rows, plus a row of
  // another point. One row looks the schedule up; the other was served
  // from a scenario cache and only skips.
  ScenarioSpec o0 = uniform_4x4(0.5);
  ScenarioSpec o2 = o0;
  o2.mode = ordering::OrderingMode::kSeparated;
  const ScenarioSpec other = uniform_4x4(0.25);
  ScheduleCache cache(std::vector<const ScenarioSpec*>{&o0, &o2, &other});
  const SharedSchedulePtr first = cache.get(o0);
  const SharedSchedulePtr kept = cache.get(other);
  cache.skip(o2);
  // Both expected rows of o0's key are through, so the entry is gone and
  // another lookup materializes afresh; `other` still expects no more.
  EXPECT_NE(cache.get(o0).get(), first.get());
  EXPECT_NE(cache.get(other).get(), kept.get());

  // A row served before any lookup leaves the schedule to the row that
  // simulates.
  ScheduleCache served_first(std::vector<const ScenarioSpec*>{&o0, &o2});
  served_first.skip(o2);
  const SharedSchedulePtr built = served_first.get(o0);
  EXPECT_FALSE(built->requests.empty());
  EXPECT_NE(served_first.get(o0).get(), built.get());
}

TEST(Campaign, CountsOneCycleRunPerGridPoint) {
  // The micro_cache sweep's shape: two generators x two formats, every
  // mode, cycle engine pinned — 4 grid points, 4 timing runs however many
  // workers race for them, and none on a warm rerun.
  CampaignSpec camp = small_campaign();
  camp.modes = ordering::all_ordering_modes();
  camp.base.engine_auto = false;
  const std::string dir = testing::TempDir() + "nocbt_cycle_runs_cache";
  for (const std::size_t threads : {1u, 4u}) {
    std::filesystem::remove_all(dir);
    RunnerConfig runner;
    runner.threads = threads;
    runner.exec.cache_dir = dir;
    const CampaignResult cold = run_campaign(camp, runner);
    EXPECT_EQ(cold.stats.simulated, cold.rows.size());
    EXPECT_EQ(cold.stats.cycle_runs, 4u) << threads << " threads";
    std::size_t charged = 0;  // the timing wall clock lands on one row each
    for (const ScenarioResult& row : cold.rows)
      if (row.wall_ms_baseline > 0.0) ++charged;
    EXPECT_EQ(charged, 4u);
    const CampaignResult warm = run_campaign(camp, runner);
    EXPECT_EQ(warm.stats.simulated, 0u);
    EXPECT_EQ(warm.stats.cycle_runs, 0u);
  }
  std::filesystem::remove_all(dir);
  // Shards are separate processes: each times every point it carries.
  for (std::uint32_t index = 0; index < 2; ++index) {
    RunnerConfig runner;
    runner.exec.shard = ShardSpec{index, 2};
    EXPECT_EQ(run_campaign(camp, runner).stats.cycle_runs, 4u)
        << "shard " << index;
  }
}

TEST(Campaign, ModelRowsStillRunTwice) {
  Options opts;
  CampaignSpec camp = campaign_from_options(opts);
  camp.generators = {GeneratorKind::kModel};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.meshes = {MeshSpec{4, 4, 2}};
  const CampaignResult result = run_campaign(camp);
  for (const ScenarioResult& row : result.rows)
    ASSERT_TRUE(row.error.empty()) << row.error;
  EXPECT_EQ(result.stats.cycle_runs, 3u);  // O0 once, O2 twice
}

}  // namespace
}  // namespace nocbt::sim
