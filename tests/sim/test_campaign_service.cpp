// End-to-end tests for the campaign service: sharded execution that
// merges byte-identical to a serial sweep (under both an auto/analytical
// and a forced cycle engine), warm-cache reruns that simulate nothing,
// partly warm reruns that simulate only the rows the cache lacks,
// kill/resume through the journal (including a torn final record), the
// spec-hash gate on resume=, and corrupt cache entries being diagnosed,
// re-simulated and overwritten.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "noc/noc_config.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"
#include "sim/run_journal.h"
#include "sim/scenario_cache.h"

namespace nocbt::sim {
namespace {

namespace fs = std::filesystem;

/// A fresh scratch path under the gtest temp dir; anything left behind by
/// a previous run of the same test is wiped so cold runs are really cold.
std::string scratch(const std::string& leaf) {
  const std::string path = testing::TempDir() + "nocbt_service_" + leaf;
  fs::remove_all(path);
  return path;
}

CampaignSpec service_campaign(bool force_active_set) {
  CampaignSpec camp;
  camp.name = "service-unit";
  camp.root_seed = 404;
  camp.generators = {GeneratorKind::kUniform, GeneratorKind::kHotspot};
  camp.formats = {DataFormat::kFloat32, DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {16};
  camp.base.packets = 24;
  camp.base.injection_rate = 0.5;
  if (force_active_set) {
    camp.base.engine_auto = false;
    camp.base.engine = noc::SimEngine::kActiveSet;
  }
  return camp;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Rows must match field-for-field (operator== already excludes the
/// wall-clock fields) and render to identical report bytes.
void expect_identical_reports(const CampaignSpec& spec,
                              const CampaignResult& a,
                              const CampaignResult& b,
                              const std::string& label) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_TRUE(a.rows[i] == b.rows[i])
        << label << ": row " << i << " (" << a.rows[i].spec.name << ")";
  EXPECT_EQ(json_report(spec, a), json_report(spec, b)) << label;
}

TEST(ShardSpec, ParsesRoundTripsAndRejects) {
  const ShardSpec s = parse_shard_spec("2/4");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(to_string(s), "2/4");
  EXPECT_EQ(parse_shard_spec("0/1").count, 1u);
  for (const char* bad : {"", "3", "1/", "/4", "4/4", "5/4", "a/b", "1/0",
                          "-1/4", "1/4/2", "1 /4"})
    EXPECT_THROW((void)parse_shard_spec(bad), std::invalid_argument) << bad;
}

class CampaignServiceEngines : public testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(AutoAndActiveSet, CampaignServiceEngines,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "ActiveSetEngine"
                                             : "AutoEngine";
                         });

TEST_P(CampaignServiceEngines, ShardedRunsMergeByteIdenticalToSerial) {
  const CampaignSpec camp = service_campaign(GetParam());
  const CampaignResult serial = run_campaign(camp);
  const std::string serial_json = json_report(camp, serial);
  const std::string tag = GetParam() ? "as" : "auto";

  for (const std::uint32_t count : {1u, 2u, 4u}) {
    std::vector<std::string> journals;
    std::size_t assigned_total = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      RunnerConfig runner;
      runner.threads = 2;
      runner.exec.shard = ShardSpec{i, count};
      runner.exec.journal_path =
          scratch(tag + std::to_string(count) + "_" + std::to_string(i) +
                  ".jnl");
      journals.push_back(runner.exec.journal_path);
      const CampaignResult shard = run_campaign(camp, runner);
      EXPECT_EQ(shard.rows.size(), shard.stats.assigned);
      assigned_total += shard.stats.assigned;
    }
    EXPECT_EQ(assigned_total, serial.rows.size())
        << count << " shards must partition the expansion exactly";

    const CampaignResult merged = merge_campaign(camp, journals);
    expect_identical_reports(camp, serial, merged,
                             std::to_string(count) + "-way merge");
    EXPECT_EQ(json_report(camp, merged), serial_json);

    // The CSV artifacts must cmp-match too (what the CI gate does).
    const std::string serial_csv = scratch(tag + "_serial.csv");
    const std::string merged_csv = scratch(tag + "_merged.csv");
    (void)write_csv_report(serial_csv, camp, serial);
    (void)write_csv_report(merged_csv, camp, merged);
    EXPECT_EQ(read_file(serial_csv), read_file(merged_csv));
  }
}

TEST_P(CampaignServiceEngines, WarmCacheRerunSimulatesNothing) {
  const CampaignSpec camp = service_campaign(GetParam());
  RunnerConfig runner;
  runner.threads = 2;
  runner.exec.cache_dir =
      scratch(std::string("warm_") + (GetParam() ? "as" : "auto"));

  const CampaignResult cold = run_campaign(camp, runner);
  EXPECT_EQ(cold.stats.simulated, cold.rows.size());
  EXPECT_EQ(cold.stats.cache_hits, 0u);

  const CampaignResult warm = run_campaign(camp, runner);
  EXPECT_EQ(warm.stats.simulated, 0u) << "warm rerun must re-simulate nothing";
  EXPECT_EQ(warm.stats.cache_hits, warm.rows.size());
  expect_identical_reports(camp, cold, warm, "warm rerun");
}

TEST(CampaignService, PartlyWarmRerunTimesEachGridPointOnce) {
  // A cache filled by modes O0,O2 serves those rows of an O0,O1,O2,chain
  // rerun. The O1 and chain rows simulate, and share one timing run per
  // grid point, though the O0 row of that point was served.
  using ordering::OrderingMode;
  CampaignSpec filled = service_campaign(true);
  filled.modes = {OrderingMode::kBaseline, OrderingMode::kSeparated};
  CampaignSpec camp = service_campaign(true);
  camp.modes = {OrderingMode::kBaseline, OrderingMode::kAffiliated,
                OrderingMode::kSeparated, OrderingMode::kChain};
  const std::size_t points = 4;  // 2 generators x 2 formats
  const CampaignResult cold = run_campaign(camp);
  ASSERT_EQ(cold.rows.size(), 4 * points);

  for (const unsigned threads : {1u, 4u}) {
    const std::string label = std::to_string(threads) + " threads";
    RunnerConfig runner;
    runner.threads = threads;
    runner.exec.cache_dir = scratch("partly_warm_" + std::to_string(threads));
    (void)run_campaign(filled, runner);

    runner.exec.journal_path =
        scratch("partly_warm_" + std::to_string(threads) + ".jnl");
    const CampaignResult rerun = run_campaign(camp, runner);
    EXPECT_EQ(rerun.stats.cache_hits, 2 * points) << label;
    EXPECT_EQ(rerun.stats.simulated, 2 * points) << label;
    EXPECT_EQ(rerun.stats.cycle_runs, points) << label;
    expect_identical_reports(camp, cold, rerun, "partly warm, " + label);

    // Served and simulated rows alike were journaled.
    runner.exec.cache_dir.clear();
    const CampaignResult resumed = run_campaign(camp, runner);
    EXPECT_EQ(resumed.stats.journal_hits, resumed.rows.size()) << label;
    expect_identical_reports(camp, cold, resumed, "resumed, " + label);
  }
}

TEST(CampaignService, ResumeSkipsJournaledRows) {
  const CampaignSpec camp = service_campaign(false);
  RunnerConfig runner;
  runner.exec.journal_path = scratch("resume.jnl");

  const CampaignResult first = run_campaign(camp, runner);
  EXPECT_EQ(first.stats.simulated, first.rows.size());

  const CampaignResult resumed = run_campaign(camp, runner);
  EXPECT_EQ(resumed.stats.simulated, 0u);
  EXPECT_EQ(resumed.stats.journal_hits, resumed.rows.size());
  expect_identical_reports(camp, first, resumed, "journal resume");
}

TEST(CampaignService, TornJournalRecordIsWarnedAndOnlyThatRowReruns) {
  const CampaignSpec camp = service_campaign(false);
  RunnerConfig runner;
  runner.exec.journal_path = scratch("torn.jnl");
  const CampaignResult first = run_campaign(camp, runner);

  // Tear the final record in half — the shape a kill -9 mid-append leaves.
  std::string body = read_file(runner.exec.journal_path);
  const std::size_t cut = body.rfind("rec,");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(runner.exec.journal_path,
                      std::ios::binary | std::ios::trunc);
    out << body.substr(0, cut + 25);
  }

  const CampaignResult resumed = run_campaign(camp, runner);
  EXPECT_EQ(resumed.stats.simulated, 1u)
      << "only the torn row may re-simulate";
  EXPECT_EQ(resumed.stats.journal_hits, resumed.rows.size() - 1);
  ASSERT_FALSE(resumed.stats.warnings.empty());
  EXPECT_NE(resumed.stats.warnings[0].find(runner.exec.journal_path),
            std::string::npos)
      << resumed.stats.warnings[0];
  expect_identical_reports(camp, first, resumed, "torn-record resume");

  // The re-run was re-journaled: a third pass replays everything.
  const CampaignResult third = run_campaign(camp, runner);
  EXPECT_EQ(third.stats.simulated, 0u);
  EXPECT_TRUE(third.stats.warnings.empty());
}

TEST(CampaignService, ResumeRefusesAJournalFromADifferentSpec) {
  const CampaignSpec camp = service_campaign(false);
  RunnerConfig runner;
  runner.exec.journal_path = scratch("mismatch.jnl");
  (void)run_campaign(camp, runner);

  CampaignSpec other = camp;
  other.root_seed = 405;
  try {
    (void)run_campaign(other, runner);
    FAIL() << "resume across differing specs must be refused";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(runner.exec.journal_path), std::string::npos) << what;
    EXPECT_NE(what.find(campaign_content_hash(camp)), std::string::npos)
        << what;
    EXPECT_NE(what.find(campaign_content_hash(other)), std::string::npos)
        << what;
  }
}

TEST(CampaignService, CorruptCacheEntryIsDiagnosedRerunAndOverwritten) {
  const CampaignSpec camp = service_campaign(false);
  RunnerConfig runner;
  runner.exec.cache_dir = scratch("corrupt_cache");
  const CampaignResult cold = run_campaign(camp, runner);

  // Flip one digit inside the first entry's record line.
  std::string victim;
  for (const auto& entry : fs::directory_iterator(runner.exec.cache_dir)) {
    victim = entry.path().string();
    break;
  }
  ASSERT_FALSE(victim.empty());
  std::string body = read_file(victim);
  const std::size_t rec = body.find("rec,");
  ASSERT_NE(rec, std::string::npos);
  body[rec + 20] = body[rec + 20] == '1' ? '2' : '1';
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << body;
  }

  const CampaignResult repaired = run_campaign(camp, runner);
  EXPECT_EQ(repaired.stats.simulated, 1u)
      << "only the damaged entry may re-simulate";
  EXPECT_EQ(repaired.stats.cache_hits, repaired.rows.size() - 1);
  ASSERT_FALSE(repaired.stats.warnings.empty());
  EXPECT_NE(repaired.stats.warnings[0].find(victim), std::string::npos)
      << "diagnostic must name the damaged file: "
      << repaired.stats.warnings[0];
  expect_identical_reports(camp, cold, repaired, "corrupt-entry repair");

  // The re-simulated row overwrote the damaged entry.
  const CampaignResult healed = run_campaign(camp, runner);
  EXPECT_EQ(healed.stats.simulated, 0u);
  EXPECT_TRUE(healed.stats.warnings.empty());
}

TEST(CampaignService, CacheAndJournalComposeAcrossRestarts) {
  // Simulate once with only a cache; then a journaled run over the same
  // cache replays everything from the cache while writing its journal;
  // then a pure resume replays from the journal.
  const CampaignSpec camp = service_campaign(false);
  RunnerConfig cache_only;
  cache_only.exec.cache_dir = scratch("compose_cache");
  const CampaignResult first = run_campaign(camp, cache_only);

  RunnerConfig both = cache_only;
  both.exec.journal_path = scratch("compose.jnl");
  const CampaignResult second = run_campaign(camp, both);
  EXPECT_EQ(second.stats.simulated, 0u);
  EXPECT_EQ(second.stats.cache_hits, second.rows.size());

  RunnerConfig journal_only;
  journal_only.exec.journal_path = both.exec.journal_path;
  const CampaignResult third = run_campaign(camp, journal_only);
  EXPECT_EQ(third.stats.simulated, 0u);
  EXPECT_EQ(third.stats.journal_hits, third.rows.size());
  expect_identical_reports(camp, first, third, "cache->journal handoff");
}

}  // namespace
}  // namespace nocbt::sim
