// Golden seed-stability test: a small fixed-seed campaign's CSV and JSON
// reports are committed under tests/sim/golden/ and compared *exactly*.
// Any kernel or refactor change that shifts numbers — BT counts, seeds,
// scenario names, report formatting — fails here and has to be reviewed
// (and the golden regenerated deliberately) instead of silently shipping.
//
// To regenerate after an intentional change:
//   NOCBT_REGEN_GOLDEN=1 ./build/tests/test_golden_campaign
// then inspect the diff of tests/sim/golden/ and commit it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "ordering/bt_kernel_backend.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"

#ifndef NOCBT_GOLDEN_DIR
#error "NOCBT_GOLDEN_DIR must point at tests/sim/golden (set by CMake)"
#endif

namespace nocbt::sim {
namespace {

/// The pinned campaign. Deliberately tiny (8 scenarios on a 4x4 mesh) but
/// wide enough to cover both formats, the paper's O2, and two registered
/// strategies, so a regression in any strategy's permutation or in the
/// BT-count kernels shifts at least one row. The uniform value
/// distribution avoids libm transcendentals, keeping the byte-exact
/// comparison portable across toolchains.
CampaignSpec golden_campaign() {
  CampaignSpec camp;
  camp.name = "golden";
  camp.root_seed = 20240515;
  camp.generators = {GeneratorKind::kUniform};
  camp.formats = {DataFormat::kFloat32, DataFormat::kFixed8};
  camp.modes = {ordering::OrderingMode::kSeparated,
                ordering::OrderingMode::kBucket,
                ordering::OrderingMode::kHybrid,
                ordering::OrderingMode::kTwoFlit};
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {16};
  camp.base.packets = 16;
  camp.base.injection_rate = 0.5;
  camp.base.value_dist = ValueDist::kUniform;
  camp.base.dist_a = -1.0;
  camp.base.dist_b = 1.0;
  return camp;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << content;
}

TEST(GoldenCampaign, ReportsMatchCommittedGoldenByteForByte) {
  const CampaignSpec camp = golden_campaign();
  const CampaignResult result = run_campaign(camp, RunnerConfig{});
  for (const ScenarioResult& row : result.rows)
    ASSERT_TRUE(row.error.empty()) << row.spec.name << ": " << row.error;

  const std::string csv_path =
      ::testing::TempDir() + "/golden_campaign_actual.csv";
  write_csv_report(csv_path, camp, result);
  const std::string actual_csv = read_file(csv_path);
  const std::string actual_json = json_report(camp, result) + "\n";

  const std::string golden_dir = NOCBT_GOLDEN_DIR;
  if (std::getenv("NOCBT_REGEN_GOLDEN") != nullptr) {
    write_file(golden_dir + "/campaign_golden.csv", actual_csv);
    write_file(golden_dir + "/campaign_golden.json", actual_json);
    GTEST_SKIP() << "regenerated golden files in " << golden_dir;
  }

  EXPECT_EQ(actual_csv, read_file(golden_dir + "/campaign_golden.csv"))
      << "campaign CSV drifted from the committed golden; if the change is "
         "intentional, regenerate with NOCBT_REGEN_GOLDEN=1 and review the "
         "diff";
  EXPECT_EQ(actual_json, read_file(golden_dir + "/campaign_golden.json"))
      << "campaign JSON drifted from the committed golden; if the change is "
         "intentional, regenerate with NOCBT_REGEN_GOLDEN=1 and review the "
         "diff";
}

TEST(GoldenCampaign, EveryKernelTierIsByteIdenticalToGolden) {
  // The BtKernelBackend contract is that the selected tier can never
  // change a result — every tier computes the same exact integer sums.
  // Pin it end to end: the whole campaign report must match the committed
  // golden byte for byte under every tier this host can execute, not just
  // the auto-dispatched one.
  if (std::getenv("NOCBT_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration run";
  const CampaignSpec camp = golden_campaign();
  const std::string golden =
      read_file(std::string(NOCBT_GOLDEN_DIR) + "/campaign_golden.json");
  for (const ordering::BtKernelBackend* backend :
       ordering::kernel_backends().all()) {
    if (!backend->available()) continue;
    const ordering::ScopedKernelTier force(backend->name());
    const CampaignResult result = run_campaign(camp, RunnerConfig{});
    EXPECT_EQ(json_report(camp, result) + "\n", golden)
        << "campaign report drifted under forced kernel tier '"
        << backend->name() << "'";
  }
}

TEST(GoldenCampaign, ParallelRunIsByteIdenticalToGolden) {
  // The runner promises N-thread == 1-thread byte-identical results; pin
  // that against the same golden so a scheduling-dependent regression in a
  // strategy (e.g. shared mutable state) is caught here too.
  const CampaignSpec camp = golden_campaign();
  RunnerConfig runner;
  runner.threads = 4;
  const CampaignResult result = run_campaign(camp, runner);
  const std::string golden =
      read_file(std::string(NOCBT_GOLDEN_DIR) + "/campaign_golden.json");
  if (std::getenv("NOCBT_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration run";
  EXPECT_EQ(json_report(camp, result) + "\n", golden);
}

}  // namespace
}  // namespace nocbt::sim
