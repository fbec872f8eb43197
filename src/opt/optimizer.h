#pragma once
// Pluggable search algorithms over the joint placement x ordering space.
// Like an OrderingStrategy or PlacementPolicy, an Optimizer is a
// registered, stateless, thread-safe search procedure, and new algorithms
// become selectable by name from the CLI and sweepable by the property
// tests without touching this layer.
//
// Built-ins:
//   random            uniform i.i.d. sampling of the space (the control
//                     every smarter search must beat or match)
//   greedy-coordinate coordinate descent: repeatedly scan one axis at a
//                     time, move to the axis-best value, stop on a full
//                     pass without improvement
//   anneal            simulated annealing: single-axis random moves,
//                     Metropolis acceptance exp(-d/T), geometric cooling
//
// Every search is deterministic in (space, config, incumbent): optimizers
// draw randomness only from an Rng seeded with config.seed, and score only
// through the memoizing Evaluator. The contract requires the returned best
// to be no worse than the incumbent — run_coopt additionally enforces it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/registry.h"
#include "opt/evaluator.h"
#include "opt/search_space.h"

namespace nocbt::opt {

/// Knobs shared by every optimizer (the SA fields are ignored by the
/// others; keeping them here keeps CoOptConfig a plain flat value the CLI
/// and tests can fill field by field).
struct CoOptConfig {
  std::string optimizer = "anneal";
  std::uint64_t seed = 1;        ///< search randomness (not the sim seed)
  std::uint32_t max_evals = 40;  ///< search-phase step budget
  /// Initial annealing temperature in mW; 0 = auto: 2% of the incumbent's
  /// power, so the early walk accepts same-ballpark regressions and the
  /// schedule is scale-free across models and meshes.
  double sa_temp = 0.0;
  double sa_cooling = 0.95;  ///< geometric factor per step, in (0, 1]
};

/// One search step: the candidate scored at that step and what the
/// algorithm did with it. The trajectory is deterministic and is what the
/// report files show.
struct StepRecord {
  std::uint32_t step = 0;  ///< 0-based step index within the search phase
  Candidate candidate;
  double power_mw = 0.0;
  bool accepted = false;  ///< became the current point (walk state)
  bool improved = false;  ///< strictly beat the best-so-far
};

struct SearchOutcome {
  Candidate best;
  double best_power_mw = 0.0;
  std::vector<StepRecord> steps;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// Search `space` scoring through `eval`, starting from `incumbent`
  /// (already evaluated; its measured power is `incumbent_power_mw`).
  /// Deterministic in its arguments; spends at most config.max_evals
  /// steps; returns a best with best_power_mw <= incumbent_power_mw.
  [[nodiscard]] virtual SearchOutcome search(
      Evaluator& eval, const SearchSpace& space, const CoOptConfig& config,
      const Candidate& incumbent, double incumbent_power_mw) const = 0;
};

/// The optimizer registry: the built-ins above, in that order, then
/// anything add()ed.
[[nodiscard]] Registry<Optimizer>& optimizers();

}  // namespace nocbt::opt
