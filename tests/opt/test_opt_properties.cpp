// Property suite over the whole optimizer registry x ordering-strategy
// cross-product: every registered Optimizer, searching a space containing
// every OrderingStrategy, must be (a) seed-deterministic — the identical
// trajectory and winner on a re-run — and (b) never worse than the best
// single-mode baseline sweep. The axes come from the registries, so a new
// optimizer or ordering strategy is covered without touching this file.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.h"
#include "opt/coopt.h"
#include "ordering/ordering.h"
#include "place/policy.h"
#include "sim/campaign.h"
#include "sim/campaign_config.h"

namespace nocbt::opt {
namespace {

/// Small placed-LeNet template: cheap enough that the full registry
/// cross-product stays within a unit-test budget.
sim::CampaignSpec lenet_template(ordering::OrderingMode mode) {
  Options opts;
  sim::CampaignSpec base = sim::campaign_from_options(opts);
  base.name = "prop-coopt";
  base.generators = {sim::GeneratorKind::kPlacement};
  base.meshes = {sim::parse_mesh_spec("4x4")};
  base.modes = {ordering::OrderingMode::kBaseline};
  if (mode != ordering::OrderingMode::kBaseline) base.modes.push_back(mode);
  base.windows = {32};
  base.formats = {DataFormat::kFixed8};
  base.base.model = "lenet";
  base.base.tiles_per_layer = 4;
  base.base.packets = 32;
  return base;
}

void expect_same_outcome(const CoOptResult& a, const CoOptResult& b) {
  EXPECT_TRUE(a.best == b.best)
      << to_string(a.best) << " vs " << to_string(b.best);
  EXPECT_EQ(a.best_power_mw, b.best_power_mw);
  EXPECT_TRUE(a.baseline == b.baseline);
  EXPECT_EQ(a.baseline_power_mw, b.baseline_power_mw);
  EXPECT_EQ(a.guard_applied, b.guard_applied);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_TRUE(a.steps[i].candidate == b.steps[i].candidate);
    EXPECT_EQ(a.steps[i].power_mw, b.steps[i].power_mw);
    EXPECT_EQ(a.steps[i].accepted, b.steps[i].accepted);
    EXPECT_EQ(a.steps[i].improved, b.steps[i].improved);
  }
}

TEST(OptPropertySuite, EveryOptimizerIsDeterministicAndGuardedOnEveryMode) {
  for (const std::string& optimizer : optimizers().names()) {
    for (const ordering::OrderingMode mode : ordering::all_ordering_modes()) {
      SCOPED_TRACE("optimizer=" + optimizer +
                   " mode=" + ordering::short_mode_name(mode));
      const sim::CampaignSpec base = lenet_template(mode);
      const SearchSpace space =
          SearchSpace::from_campaign(base, place::registered_policy_names());

      CoOptConfig config;
      config.optimizer = optimizer;
      config.seed = 7;
      config.max_evals = 4;

      const CoOptResult a = run_coopt(base, space, config);
      const CoOptResult b = run_coopt(base, space, config);

      // (a) seed-determinism: the identical search, twice.
      expect_same_outcome(a, b);

      // (b) never worse than the best single-mode baseline row, and the
      // reported winner's measurement is the ranked score.
      EXPECT_LE(a.best_power_mw, a.baseline_power_mw);
      EXPECT_EQ(a.best_power_mw, a.best_result.power_mw);
      EXPECT_GT(a.best_power_mw, 0.0);
    }
  }
}

TEST(OptPropertySuite, DifferentSeedsMayDivergeButStayGuarded) {
  const sim::CampaignSpec base =
      lenet_template(ordering::OrderingMode::kSeparated);
  const SearchSpace space =
      SearchSpace::from_campaign(base, place::registered_policy_names());
  Evaluator eval(base);  // shared memo: seeds differ, measurements don't
  for (const std::string& optimizer : optimizers().names()) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE("optimizer=" + optimizer + " seed=" +
                   std::to_string(seed));
      CoOptConfig config;
      config.optimizer = optimizer;
      config.seed = seed;
      config.max_evals = 4;
      const CoOptResult r = run_coopt(eval, space, config);
      EXPECT_LE(r.best_power_mw, r.baseline_power_mw);
    }
  }
}

TEST(OptPropertySuite, SinglePointSpaceReturnsTheIncumbent) {
  const sim::CampaignSpec base =
      lenet_template(ordering::OrderingMode::kBaseline);
  SearchSpace space;
  space.placements = {"rowmajor"};
  space.modes = {ordering::OrderingMode::kBaseline};
  space.windows = {32};
  space.formats = {DataFormat::kFixed8};
  for (const std::string& optimizer : optimizers().names()) {
    SCOPED_TRACE("optimizer=" + optimizer);
    CoOptConfig config;
    config.optimizer = optimizer;
    config.seed = 1;
    config.max_evals = 4;
    const CoOptResult r = run_coopt(base, space, config);
    EXPECT_TRUE(r.best == r.baseline);
    EXPECT_EQ(r.best_power_mw, r.baseline_power_mw);
    EXPECT_FALSE(r.guard_applied);
  }
}

}  // namespace
}  // namespace nocbt::opt
