// Tests for the co-optimizer subsystem: registry semantics, the
// paper-scale acceptance run (fixed-seed anneal on the placed ResNet must
// end no worse than the classic single-mode sweep), and the emitted
// winning-spec byte-identity contract.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "opt/coopt.h"
#include "opt/evaluator.h"
#include "opt/optimizer.h"
#include "opt/search_space.h"
#include "ordering/ordering.h"
#include "place/policy.h"
#include "sim/campaign.h"
#include "sim/campaign_report.h"
#include "sim/scenario_runner.h"
#include "sim/campaign_config.h"

namespace nocbt::opt {
namespace {

sim::CampaignSpec resnet_template() {
  Options opts;
  sim::CampaignSpec base = sim::campaign_from_options(opts);
  base.name = "resnet-coopt";
  base.generators = {sim::GeneratorKind::kPlacement};
  base.meshes = {sim::parse_mesh_spec("8x8mc4")};
  base.modes = ordering::all_ordering_modes();
  base.windows = {64};
  base.formats = {DataFormat::kFixed8};
  base.base.model = "resnet";
  base.base.tiles_per_layer = 8;
  return base;
}

TEST(OptimizerRegistry, BuiltinsAreRegisteredInOrder) {
  const std::vector<std::string> names = optimizers().names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], "random");
  EXPECT_EQ(names[1], "greedy-coordinate");
  EXPECT_EQ(names[2], "anneal");
  for (const std::string& name : names)
    EXPECT_EQ(optimizers().get(name).name(), name);
}

TEST(OptimizerRegistry, UnknownNameThrowsListingRegistered) {
  EXPECT_EQ(optimizers().find("no-such-search"), nullptr);
  try {
    (void)optimizers().get("no-such-search");
    FAIL() << "expected optimizers().get to throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("optimizer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("no-such-search"), std::string::npos) << msg;
    EXPECT_NE(msg.find("anneal"), std::string::npos) << msg;
  }
}

TEST(OptimizerRegistry, RejectsNullAndDuplicate) {
  EXPECT_THROW(optimizers().add(nullptr), std::invalid_argument);

  class Dup final : public Optimizer {
   public:
    std::string_view name() const noexcept override { return "anneal"; }
    std::string_view description() const noexcept override { return "dup"; }
    SearchOutcome search(Evaluator&, const SearchSpace&, const CoOptConfig&,
                         const Candidate& incumbent,
                         double incumbent_power_mw) const override {
      return SearchOutcome{incumbent, incumbent_power_mw, {}};
    }
  };
  EXPECT_THROW(optimizers().add(std::make_unique<Dup>()),
               std::invalid_argument);
  EXPECT_NE(optimizers().get("anneal").description(), "dup");
}

TEST(SearchSpaceChecks, ValidateRejectsBadAxes) {
  SearchSpace space = SearchSpace::full({64}, {DataFormat::kFixed8});
  EXPECT_GE(space.size(), 3u * 8u);
  space.placements.push_back("no-such-policy");
  EXPECT_THROW(space.validate(), std::invalid_argument);
  space.placements.pop_back();
  space.windows.push_back(64);
  EXPECT_THROW(space.validate(), std::invalid_argument);
  space.windows.pop_back();
  space.modes.clear();
  EXPECT_THROW(space.validate(), std::invalid_argument);
}

TEST(CoOptResnet, AnnealBeatsOrMatchesTheSingleModeSweep) {
  // Acceptance gate: fixed-seed anneal on the placed ResNet (8x8 mesh)
  // must find a configuration whose measured power is <= the best row of
  // the classic single-mode sweep (rowmajor placement, window 64, fixed-8
  // — resnet_placed_sweep's 8x8 grid, every ordering mode).
  const sim::CampaignSpec base = resnet_template();
  Evaluator eval(base);

  double sweep_best = 0.0;
  bool first = true;
  for (const ordering::OrderingMode mode : ordering::all_ordering_modes()) {
    Candidate c;
    c.placement = "rowmajor";
    c.mode = mode;
    c.window = 64;
    c.format = DataFormat::kFixed8;
    const double power = eval.evaluate(c).power_mw;
    if (first || power < sweep_best) sweep_best = power;
    first = false;
  }

  const SearchSpace space =
      SearchSpace::from_campaign(base, place::registered_policy_names());
  CoOptConfig config;
  config.optimizer = "anneal";
  config.seed = 1;
  config.max_evals = 10;
  const CoOptResult result = run_coopt(eval, space, config);

  EXPECT_LE(result.best_power_mw, sweep_best);
  EXPECT_LE(result.best_power_mw, result.baseline_power_mw);
  EXPECT_EQ(result.best_power_mw, result.best_result.power_mw);
  EXPECT_FALSE(result.guard_applied);
  EXPECT_EQ(result.steps.size(), 10u);
  EXPECT_GE(result.evaluations, space.modes.size());
}

TEST(CoOptResnet, EmittedWinningSpecRerunsByteIdentically) {
  // The emitted spec file must reconstruct a campaign whose single
  // scenario measures the winner byte for byte — the contract that lets
  // `nocbt_campaign config=<spec>` reproduce the co-optimizer's result.
  const sim::CampaignSpec base = resnet_template();
  Evaluator eval(base);
  const SearchSpace space =
      SearchSpace::from_campaign(base, place::registered_policy_names());
  CoOptConfig config;
  config.optimizer = "anneal";
  config.seed = 1;
  config.max_evals = 6;
  const CoOptResult result = run_coopt(eval, space, config);

  const std::string path = testing::TempDir() + "nocbt_coopt_winning.conf";
  sim::write_campaign_config(path, result.winning);
  const sim::CampaignSpec reparsed =
      sim::campaign_from_options(Options::parse_file(path));
  const sim::ScenarioResult rerun = sim::run_single_scenario(reparsed);

  ASSERT_TRUE(rerun.error.empty()) << rerun.error;
  EXPECT_TRUE(rerun == result.best_result);
  EXPECT_EQ(rerun.power_mw, result.best_result.power_mw);
  EXPECT_EQ(rerun.energy_pj, result.best_result.energy_pj);
  EXPECT_EQ(rerun.bt_ordered, result.best_result.bt_ordered);

  // The campaign-level JSON reports agree byte for byte as well.
  sim::CampaignResult mine;
  mine.rows.push_back(result.best_result);
  sim::CampaignResult theirs;
  theirs.rows.push_back(rerun);
  EXPECT_EQ(sim::json_report(result.winning, mine),
            sim::json_report(reparsed, theirs));
}

}  // namespace
}  // namespace nocbt::opt
