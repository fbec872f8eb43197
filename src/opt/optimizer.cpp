#include "opt/optimizer.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/rng.h"

namespace nocbt::opt {

namespace {

/// The four coordinates a search moves along, in the fixed order the
/// deterministic algorithms scan them.
enum class Axis : int { kPlacement = 0, kMode, kWindow, kFormat };
constexpr int kNumAxes = 4;

std::size_t axis_size(const SearchSpace& space, Axis axis) {
  switch (axis) {
    case Axis::kPlacement: return space.placements.size();
    case Axis::kMode: return space.modes.size();
    case Axis::kWindow: return space.windows.size();
    case Axis::kFormat: return space.formats.size();
  }
  return 0;
}

Candidate with_value(Candidate c, const SearchSpace& space, Axis axis,
                     std::size_t index) {
  switch (axis) {
    case Axis::kPlacement: c.placement = space.placements[index]; break;
    case Axis::kMode: c.mode = space.modes[index]; break;
    case Axis::kWindow: c.window = space.windows[index]; break;
    case Axis::kFormat: c.format = space.formats[index]; break;
  }
  return c;
}

bool holds_value(const Candidate& c, const SearchSpace& space, Axis axis,
                 std::size_t index) {
  switch (axis) {
    case Axis::kPlacement: return c.placement == space.placements[index];
    case Axis::kMode: return c.mode == space.modes[index];
    case Axis::kWindow: return c.window == space.windows[index];
    case Axis::kFormat: return c.format == space.formats[index];
  }
  return false;
}

/// Shared best-so-far bookkeeping: score `c`, append the step record, and
/// fold it into (best, best_power). Returns the measured power.
double score_step(Evaluator& eval, const Candidate& c, std::uint32_t step,
                  SearchOutcome& out, std::vector<StepRecord>& steps) {
  const double power = eval.evaluate(c).power_mw;
  StepRecord rec;
  rec.step = step;
  rec.candidate = c;
  rec.power_mw = power;
  rec.improved = power < out.best_power_mw;
  if (rec.improved) {
    out.best = c;
    out.best_power_mw = power;
  }
  steps.push_back(std::move(rec));
  return power;
}

class RandomOptimizer final : public Optimizer {
 public:
  std::string_view name() const noexcept override { return "random"; }
  std::string_view description() const noexcept override {
    return "uniform i.i.d. sampling of the joint space (control search)";
  }

  SearchOutcome search(Evaluator& eval, const SearchSpace& space,
                       const CoOptConfig& config, const Candidate& incumbent,
                       double incumbent_power_mw) const override {
    SearchOutcome out;
    out.best = incumbent;
    out.best_power_mw = incumbent_power_mw;
    Rng rng(config.seed);
    for (std::uint32_t step = 0; step < config.max_evals; ++step) {
      Candidate c = incumbent;
      for (int a = 0; a < kNumAxes; ++a) {
        const Axis axis = static_cast<Axis>(a);
        const std::size_t n = axis_size(space, axis);
        c = with_value(std::move(c), space, axis,
                       static_cast<std::size_t>(
                           rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
      }
      score_step(eval, c, step, out, out.steps);
      out.steps.back().accepted = out.steps.back().improved;
    }
    return out;
  }
};

class GreedyCoordinateOptimizer final : public Optimizer {
 public:
  std::string_view name() const noexcept override {
    return "greedy-coordinate";
  }
  std::string_view description() const noexcept override {
    return "coordinate descent: move each axis to its best value until a "
           "full pass stalls";
  }

  SearchOutcome search(Evaluator& eval, const SearchSpace& space,
                       const CoOptConfig& config, const Candidate& incumbent,
                       double incumbent_power_mw) const override {
    SearchOutcome out;
    out.best = incumbent;
    out.best_power_mw = incumbent_power_mw;
    Candidate current = incumbent;
    double current_power = incumbent_power_mw;
    std::uint32_t step = 0;
    bool pass_improved = true;
    while (pass_improved && step < config.max_evals) {
      pass_improved = false;
      for (int a = 0; a < kNumAxes && step < config.max_evals; ++a) {
        const Axis axis = static_cast<Axis>(a);
        // Scan every alternative on this axis, then move to the axis-best
        // when it strictly beats the current point.
        std::size_t best_index = 0;
        double best_power = current_power;
        bool moved = false;
        std::size_t best_step_at = 0;
        for (std::size_t i = 0;
             i < axis_size(space, axis) && step < config.max_evals; ++i) {
          if (holds_value(current, space, axis, i)) continue;
          const Candidate c = with_value(current, space, axis, i);
          const double power = score_step(eval, c, step++, out, out.steps);
          if (power < best_power) {
            best_power = power;
            best_index = i;
            moved = true;
            best_step_at = out.steps.size() - 1;
          }
        }
        if (moved) {
          current = with_value(std::move(current), space, axis, best_index);
          current_power = best_power;
          out.steps[best_step_at].accepted = true;
          pass_improved = true;
        }
      }
    }
    return out;
  }
};

class AnnealOptimizer final : public Optimizer {
 public:
  std::string_view name() const noexcept override { return "anneal"; }
  std::string_view description() const noexcept override {
    return "simulated annealing: single-axis moves, Metropolis acceptance, "
           "geometric cooling";
  }

  SearchOutcome search(Evaluator& eval, const SearchSpace& space,
                       const CoOptConfig& config, const Candidate& incumbent,
                       double incumbent_power_mw) const override {
    if (!(config.sa_cooling > 0.0) || config.sa_cooling > 1.0)
      throw std::invalid_argument(
          "anneal: sa_cooling must be in (0, 1], got " +
          std::to_string(config.sa_cooling));
    SearchOutcome out;
    out.best = incumbent;
    out.best_power_mw = incumbent_power_mw;

    // Axes with a single value cannot move; with none movable the space is
    // one point and the incumbent is already it.
    std::vector<Axis> movable;
    for (int a = 0; a < kNumAxes; ++a)
      if (axis_size(space, static_cast<Axis>(a)) > 1)
        movable.push_back(static_cast<Axis>(a));
    if (movable.empty()) return out;

    Rng rng(config.seed);
    Candidate current = incumbent;
    double current_power = incumbent_power_mw;
    double temperature = config.sa_temp > 0.0
                             ? config.sa_temp
                             : std::max(incumbent_power_mw * 0.02, 1e-9);
    for (std::uint32_t step = 0; step < config.max_evals; ++step) {
      // Neighbor: one random movable axis to a random *different* value.
      const Axis axis = movable[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(movable.size()) - 1))];
      const std::size_t n = axis_size(space, axis);
      std::size_t index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      while (holds_value(current, space, axis, index))
        index = (index + 1) % n;
      const Candidate c = with_value(current, space, axis, index);

      const double power = score_step(eval, c, step, out, out.steps);
      const double delta = power - current_power;
      // Metropolis rule: downhill always, uphill with exp(-delta/T). The
      // uniform draw happens only on the uphill branch, so schedules stay
      // reproducible step for step.
      const bool accept =
          delta <= 0.0 || rng.uniform(0.0, 1.0) < std::exp(-delta / temperature);
      if (accept) {
        current = c;
        current_power = power;
        out.steps.back().accepted = true;
      }
      temperature *= config.sa_cooling;
    }
    return out;
  }
};

}  // namespace

Registry<Optimizer>& optimizers() {
  static Registry<Optimizer> registry(
      "optimizer", std::make_unique<RandomOptimizer>(),
      std::make_unique<GreedyCoordinateOptimizer>(),
      std::make_unique<AnnealOptimizer>());
  return registry;
}

}  // namespace nocbt::opt
