#include "opt/coopt.h"

#include <cstdio>
#include <utility>

namespace nocbt::opt {

namespace {

std::string format_mw(double mw) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", mw);
  return buf;
}

}  // namespace

CoOptResult run_coopt(Evaluator& eval, const SearchSpace& space,
                      const CoOptConfig& config) {
  space.validate();
  const Optimizer& optimizer = optimizers().get(config.optimizer);

  // Phase 1 — baseline sweep: every ordering mode at the baseline
  // coordinates. Ties keep the earlier mode, so the incumbent is stable
  // under axis reordering of the later modes only.
  CoOptResult result;
  bool first = true;
  for (const ordering::OrderingMode mode : space.modes) {
    Candidate c;
    c.placement = space.placements.front();
    c.mode = mode;
    c.window = space.windows.front();
    c.format = space.formats.front();
    const double power = eval.evaluate(c).power_mw;
    if (first || power < result.baseline_power_mw) {
      result.baseline = c;
      result.baseline_power_mw = power;
      first = false;
    }
  }

  // Phase 2 — search from the incumbent.
  SearchOutcome outcome = optimizer.search(eval, space, config,
                                           result.baseline,
                                           result.baseline_power_mw);

  // Phase 3 — guard: never worse than the best single-mode baseline.
  if (outcome.best_power_mw > result.baseline_power_mw) {
    result.best = result.baseline;
    result.best_power_mw = result.baseline_power_mw;
    result.guard_applied = true;
  } else {
    result.best = std::move(outcome.best);
    result.best_power_mw = outcome.best_power_mw;
  }
  result.steps = std::move(outcome.steps);
  result.best_result = eval.evaluate(result.best);
  result.winning = eval.campaign_for(result.best);
  result.evaluations = eval.runs();
  return result;
}

CoOptResult run_coopt(const sim::CampaignSpec& base, const SearchSpace& space,
                      const CoOptConfig& config) {
  Evaluator eval(base);
  return run_coopt(eval, space, config);
}

std::string coopt_report(const CoOptResult& result) {
  std::string out;
  out += "co-optimization report\n";
  out += "  baseline  " + to_string(result.baseline) + "  power_mw=" +
         format_mw(result.baseline_power_mw) + "\n";
  out += "  best      " + to_string(result.best) + "  power_mw=" +
         format_mw(result.best_power_mw) + "\n";
  out += "  guard_applied=" +
         std::string(result.guard_applied ? "true" : "false") +
         " evaluations=" + std::to_string(result.evaluations) +
         " steps=" + std::to_string(result.steps.size()) + "\n";
  out += "  trajectory (step candidate power_mw accepted improved):\n";
  for (const StepRecord& s : result.steps) {
    out += "    " + std::to_string(s.step) + " " + to_string(s.candidate) +
           " " + format_mw(s.power_mw) + (s.accepted ? " accepted" : "") +
           (s.improved ? " improved" : "") + "\n";
  }
  return out;
}

}  // namespace nocbt::opt
