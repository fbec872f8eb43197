// Tests for the campaign engine: grid expansion, deterministic seeding,
// thread-count invariance, ordering effectiveness, reports, and error
// containment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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
  // mcs is meaningless for synthetic traffic, but it must still appear in
  // names or grid points that differ only on it would collide. Model rows
  // ignore the window: expand() gives them the first, once each.
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

TEST(Campaign, ModelRowsIgnoreWindowsAndReplicates) {
  // An inference reads neither the window nor the seed, so each model row
  // is expanded once, with the first window and replicate 0's name and
  // seed; the uniform rows beside it keep both axes.
  CampaignSpec camp = small_campaign();
  camp.root_seed = 42;
  camp.generators = {GeneratorKind::kModel, GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.windows = {32, 64};
  camp.replicates = 2;
  std::vector<std::string> model_rows;
  std::size_t uniform_rows = 0;
  for (const ScenarioSpec& s : camp.expand()) {
    if (s.generator == GeneratorKind::kUniform) {
      ++uniform_rows;
      continue;
    }
    model_rows.push_back(s.name);
    EXPECT_EQ(s.window, 32u);
    // Grid position 0's seed under root seed 42, as before model rows
    // dropped their other windows and replicates.
    EXPECT_EQ(s.seed, 13679457532755275413ull) << s.name;
  }
  const std::vector<std::string> expected{"model/fx8/O0/4x4mc2/w32/r0",
                                          "model/fx8/O2/4x4mc2/w32/r0"};
  EXPECT_EQ(model_rows, expected);
  EXPECT_EQ(uniform_rows, 2u * 2u * 2u);
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
  // The derived block is built once, for the spec's format; the schedule
  // cache key pins the format, so another one is a caller bug.
  SharedSchedule sched;
  sched.spec.format = DataFormat::kFixed8;
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

TEST(SharedSchedule, TimingRunsOnceForItsSpec) {
  SharedSchedule sched;
  sched.spec.name = "timing";
  sched.spec.format = DataFormat::kFixed8;
  sched.requests = {InjectionRequest{0, 0, 5, {0x0F, 0xF0}, {0x01, 0x02}},
                    InjectionRequest{9, 3, 12, {0xFF, 0x00}, {0x03, 0x04}}};
  bool built = false;
  const SharedSchedule::Timing& timing = sched.timing({}, &built);
  EXPECT_TRUE(built);
  ASSERT_FALSE(timing.error);
  EXPECT_TRUE(timing.baseline.drained);
  EXPECT_EQ(timing.order.packets(), 2u);
  EXPECT_EQ(timing.order.flits(), 2u);
  EXPECT_TRUE(timing.engine_reason.empty()) << timing.engine_reason;
  // Two far-apart packets: the analytical engine times them.
  EXPECT_EQ(timing.baseline.sim.engine, noc::SimEngine::kAnalytical);

  EXPECT_EQ(&sched.timing({}, &built), &timing);
  EXPECT_FALSE(built);
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

  // A model spec's timing run is its O0 inference, which reads the input
  // seed; its schedule is empty.
  ScenarioSpec model;
  model.generator = GeneratorKind::kModel;
  ScenarioSpec other_input = model;
  other_input.input_seed = 99;
  ScheduleCache models(2);
  const SharedSchedulePtr first = models.get(model);
  EXPECT_TRUE(first->requests.empty());
  EXPECT_NE(first.get(), models.get(other_input).get());
  ScenarioSpec model_o2 = model;
  model_o2.mode = ordering::OrderingMode::kSeparated;
  EXPECT_EQ(first.get(), models.get(model_o2).get());
}

TEST(ScheduleCache, RowOnlyFieldsShareOneScheduleAndOneTimingRun) {
  // Mode, input seed and the two energy knobs change a row, not its
  // schedule or its timing run.
  const ScenarioSpec base = uniform_4x4(0.5);
  std::vector<ScenarioSpec> rows(5, base);
  rows[1].mode = ordering::OrderingMode::kChain;
  rows[2].input_seed = 99;
  rows[3].energy_per_transition_pj = 0.532;
  rows[4].frequency_mhz = 250.0;
  ScheduleCache cache(rows.size());
  const SharedSchedule* shared = nullptr;
  std::size_t timing_runs = 0;
  for (const ScenarioSpec& row : rows) {
    const SharedSchedulePtr schedule = cache.get(row);
    if (!shared) shared = schedule.get();
    EXPECT_EQ(schedule.get(), shared);
    bool built = false;
    ASSERT_FALSE(schedule->timing({}, &built).error);
    if (built) ++timing_runs;
  }
  EXPECT_EQ(timing_runs, 1u);
}

TEST(ScheduleCache, DropsAnEntryAfterTheLastRowCarryingIt) {
  // The rows a shard has left to simulate: two of a grid point's three
  // mode rows, plus a row of another point.
  ScenarioSpec o0 = uniform_4x4(0.5);
  ScenarioSpec o2 = o0;
  o2.mode = ordering::OrderingMode::kSeparated;
  const ScenarioSpec other = uniform_4x4(0.25);
  ScheduleCache cache(std::vector<const ScenarioSpec*>{&o0, &o2, &other});
  const SharedSchedulePtr first = cache.get(o0);
  const SharedSchedulePtr kept = cache.get(other);
  EXPECT_EQ(cache.get(o2).get(), first.get());
  // Both expected rows of o0's key are through, so the entry is gone and
  // another lookup materializes afresh; `other` expects no more either.
  EXPECT_NE(cache.get(o0).get(), first.get());
  EXPECT_NE(cache.get(other).get(), kept.get());

  // A model grid point is keyed and counted like any other.
  ScenarioSpec model_o0;
  model_o0.generator = GeneratorKind::kModel;
  ScenarioSpec model_o2 = model_o0;
  model_o2.mode = ordering::OrderingMode::kSeparated;
  ScheduleCache models(
      std::vector<const ScenarioSpec*>{&model_o0, &o0, &model_o2});
  const SharedSchedulePtr model_first = models.get(model_o0);
  EXPECT_EQ(models.get(model_o2).get(), model_first.get());
  EXPECT_NE(models.get(model_o0).get(), model_first.get());
}

/// Every spec of `camp`'s expansion whose row is not in `served` (a
/// stand-in for the rows the executor's first pass served).
std::vector<ScenarioSpec> left_rows(const CampaignSpec& camp,
                                    const std::set<std::string>& served) {
  std::vector<ScenarioSpec> left;
  for (const ScenarioSpec& s : camp.expand())
    if (!served.count(s.name)) left.push_back(s);
  return left;
}

std::vector<std::size_t> grid_points_of(const std::vector<ScenarioSpec>& rows) {
  std::vector<const ScenarioSpec*> ptrs;
  for (const ScenarioSpec& s : rows) ptrs.push_back(&s);
  return ScheduleCache(ptrs).grid_points();
}

/// The dispatch contract at `threads` workers over rows whose grid points
/// are `points`: a permutation; the first `threads` dispatches are the
/// first rows of the first `threads` grid points; a point's first row
/// precedes its other rows and follows every row of the point `threads`
/// places before it, so it is never more than `threads` points early.
void expect_timing_first(const std::vector<std::size_t>& points,
                         std::size_t threads) {
  SCOPED_TRACE(std::to_string(threads) + " threads");
  const std::vector<std::size_t> order = timing_first_order(points, threads);
  ASSERT_EQ(order.size(), points.size());
  std::vector<std::size_t> pos(order.size(), order.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    ASSERT_LT(order[p], order.size());
    ASSERT_EQ(pos[order[p]], order.size()) << "row " << order[p] << " twice";
    pos[order[p]] = p;
  }
  std::vector<std::size_t> first_row;
  for (std::size_t k = 0; k < points.size(); ++k)
    if (points[k] == first_row.size()) first_row.push_back(k);
  for (std::size_t g = 0; g < std::min(threads, first_row.size()); ++g)
    EXPECT_EQ(order[g], first_row[g]) << "dispatch " << g;
  for (std::size_t k = 0; k < points.size(); ++k) {
    const std::size_t g = points[k];
    if (k != first_row[g]) {
      EXPECT_LT(pos[first_row[g]], pos[k]) << "row " << k << " before its timing";
    }
    if (g + threads < first_row.size()) {
      EXPECT_LT(pos[k], pos[first_row[g + threads]])
          << "grid point " << g + threads << " starts before row " << k;
    }
  }
}

TEST(CampaignDispatch, TimingFirstOrderBoundsItsLookahead) {
  CampaignSpec camp = small_campaign();
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated,
                ordering::OrderingMode::kChain};
  // sweep_contended's shape: each grid point's rows are contiguous.
  const std::vector<ScenarioSpec> contiguous = left_rows(camp, {});
  // sweep_zeroload's shape: the windows axis is innermost, so two grid
  // points' rows alternate.
  camp.windows = {16, 32};
  const std::vector<ScenarioSpec> interleaved = left_rows(camp, {});
  // The first pass served the O0 rows of the uniform points, so their
  // first rows left are mode rows.
  std::set<std::string> served;
  for (const ScenarioSpec& s : interleaved)
    if (s.generator == GeneratorKind::kUniform &&
        s.mode == ordering::OrderingMode::kBaseline)
      served.insert(s.name);
  const std::vector<ScenarioSpec> partly = left_rows(camp, served);

  const std::vector<std::size_t> contiguous_points =
      grid_points_of(contiguous);
  EXPECT_EQ(contiguous_points,
            (std::vector<std::size_t>{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}));
  const std::vector<std::size_t> interleaved_points =
      grid_points_of(interleaved);
  EXPECT_EQ(std::vector<std::size_t>(interleaved_points.begin(),
                                     interleaved_points.begin() + 6),
            (std::vector<std::size_t>{0, 1, 0, 1, 0, 1}));
  const std::vector<std::size_t> partly_points = grid_points_of(partly);
  EXPECT_EQ(partly.size(), interleaved.size() - 4);
  EXPECT_EQ(partly.front().mode, ordering::OrderingMode::kSeparated);
  for (const auto* points :
       {&contiguous_points, &interleaved_points, &partly_points})
    for (std::size_t threads = 1; threads <= 9; ++threads)
      expect_timing_first(*points, threads);
  EXPECT_TRUE(timing_first_order({}, 4).empty());
}

TEST(CampaignDispatch, SecondPassRunsInTimingFirstOrder) {
  // One worker reports rows in the order it runs them. A cache warmed with
  // the uniform points' O0 rows serves those in the first pass; the rest
  // must follow timing_first_order, here each grid point's rows in turn
  // although the windows axis interleaves two points' rows.
  CampaignSpec camp = small_campaign();
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.windows = {16, 32};
  const std::string dir = testing::TempDir() + "nocbt_dispatch_order_cache";
  std::filesystem::remove_all(dir);
  RunnerConfig runner;
  runner.exec.cache_dir = dir;
  CampaignSpec warm_up = camp;
  warm_up.generators = {GeneratorKind::kUniform};
  warm_up.modes = {ordering::OrderingMode::kBaseline};
  ASSERT_EQ(run_campaign(warm_up, runner).stats.simulated, 4u);

  std::vector<std::string> reported;
  runner.on_result = [&](const ScenarioResult& row, std::size_t,
                         std::size_t) { reported.push_back(row.spec.name); };
  const CampaignResult result = run_campaign(camp, runner);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(result.stats.cache_hits, 4u);
  ASSERT_EQ(reported.size(), result.rows.size());

  std::set<std::string> served(reported.begin(), reported.begin() + 4);
  const std::vector<ScenarioSpec> left = left_rows(camp, served);
  ASSERT_EQ(left.size(), reported.size() - 4);
  const std::vector<std::size_t> order =
      timing_first_order(grid_points_of(left), 1);
  for (std::size_t p = 0; p < order.size(); ++p)
    EXPECT_EQ(reported[4 + p], left[order[p]].name) << "dispatch " << p;
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

TEST(Campaign, ModelGridPointRunsItsBaselineOnce) {
  // A model grid point's O0 inference is its timing: the O0 row reuses it,
  // and every other mode row runs only its own inference, because a mode
  // can change a model run's flit counts.
  Options opts;
  CampaignSpec camp = campaign_from_options(opts);
  camp.generators = {GeneratorKind::kModel};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.meshes = {MeshSpec{4, 4, 2}};
  EXPECT_EQ(run_campaign(camp).stats.cycle_runs, 2u);

  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kAffiliated,
                ordering::OrderingMode::kSeparated};
  std::vector<ScenarioResult> alone;
  for (const ScenarioSpec& spec : camp.expand())
    alone.push_back(run_scenario(spec, camp.hooks));
  for (const std::size_t threads : {1u, 4u}) {
    RunnerConfig runner;
    runner.threads = threads;
    const CampaignResult result = run_campaign(camp, runner);
    EXPECT_EQ(result.stats.cycle_runs, 3u) << threads << " threads";
    ASSERT_EQ(result.rows.size(), alone.size());
    for (std::size_t i = 0; i < alone.size(); ++i) {
      ASSERT_TRUE(result.rows[i].error.empty()) << result.rows[i].error;
      EXPECT_TRUE(result.rows[i] == alone[i])
          << alone[i].spec.name << ", " << threads << " threads";
    }
  }
}

TEST(Campaign, ModelRowsHonorFixedBitsAndSlots) {
  // Both knobs are in a model row's content key, so each must change the
  // platform the row runs: the codec's quantizer width and the flit's
  // value slots.
  Options opts;
  CampaignSpec camp = campaign_from_options(opts);
  camp.generators = {GeneratorKind::kModel};
  camp.formats = {DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline};
  camp.meshes = {MeshSpec{4, 4, 2}};
  const auto row = [&camp](unsigned fixed_bits, unsigned slots) {
    CampaignSpec c = camp;
    c.base.fixed_bits = fixed_bits;
    c.base.values_per_flit = slots;
    const CampaignResult result = run_campaign(c);
    EXPECT_EQ(result.rows.size(), 1u);
    EXPECT_TRUE(result.rows.at(0).error.empty()) << result.rows.at(0).error;
    return result.rows.at(0);
  };
  const ScenarioResult plain = row(8, 16);
  const ScenarioResult narrow = row(4, 16);
  const ScenarioResult half = row(8, 8);
  EXPECT_NE(narrow.bt_baseline, plain.bt_baseline);
  EXPECT_EQ(narrow.flits, plain.flits);
  EXPECT_NE(half.bt_baseline, plain.bt_baseline);
  EXPECT_GT(half.flits, plain.flits);
}

TEST(Campaign, ModelSpecRejectsBadCodecGeometryUpFront) {
  ScenarioSpec spec;
  spec.generator = GeneratorKind::kModel;
  spec.format = DataFormat::kFixed8;
  EXPECT_NO_THROW(spec.validate());
  ScenarioSpec wide = spec;
  wide.fixed_bits = 9;
  EXPECT_THROW(wide.validate(), std::invalid_argument);
  ScenarioSpec odd = spec;
  odd.values_per_flit = 7;
  EXPECT_THROW(odd.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::sim
