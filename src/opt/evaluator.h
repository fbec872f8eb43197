#pragma once
// The co-optimizer's inner-loop scorer: one Candidate -> one measured
// ScenarioResult, through the same campaign engine the sweep front-ends
// use. Measurement, not a proxy model — every score is sim::
// run_single_scenario on a single-point campaign, so the number the search
// ranks by is byte-identical to the matching row of a full run_campaign
// sweep (the differential tests pin this).
//
// Scores are memoized per candidate: optimizers revisit points freely
// (annealing walks, greedy re-scans) and only the first visit simulates.
// Hand the evaluator a shared sim::ScenarioCache and even first visits can
// be served without simulating — searches resume across processes and
// share hits with campaign sweeps pointed at the same cache_dir.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "opt/search_space.h"
#include "sim/campaign.h"
#include "sim/scenario_cache.h"
#include "sim/scenario_runner.h"

namespace nocbt::opt {

class Evaluator {
 public:
  /// `base` is the campaign template every candidate is scored under: its
  /// non-grid knobs (mesh, model, tiles_per_layer, seeds, packets, energy
  /// point, engine choice, ...) are shared by all candidates, while the
  /// grid axes are overwritten per candidate. Throws std::invalid_argument
  /// unless the template is single-point-able: exactly one generator and
  /// one mesh, replicates == 1.
  explicit Evaluator(sim::CampaignSpec base);

  /// Same, scoring through a shared content-addressed cache (may be null):
  /// a first visit whose scenario is already cached — by an earlier
  /// search, a resumed one, or a campaign sweep over the same cache_dir —
  /// is served without simulating.
  Evaluator(sim::CampaignSpec base, std::shared_ptr<sim::ScenarioCache> cache);

  /// Measured result for `c` (memoized; the returned reference stays valid
  /// for the evaluator's lifetime). Throws std::runtime_error when the
  /// scenario fails — a search must not silently rank a broken
  /// measurement.
  const sim::ScenarioResult& evaluate(const Candidate& c);

  /// The single-point campaign that measures exactly `c`: the template
  /// with formats/modes/windows collapsed to the candidate's values and
  /// the candidate's placement in the base scenario. This is what
  /// evaluate() runs — and what the winning spec file is emitted from, so
  /// "what the search scored" and "what the spec re-runs" are one object.
  [[nodiscard]] sim::CampaignSpec campaign_for(const Candidate& c) const;

  /// Scenarios actually simulated so far. Without a shared cache this is
  /// exactly the local-memo miss count; with one it can be lower (misses
  /// served by the cache).
  [[nodiscard]] std::size_t runs() const { return simulated_; }
  /// Total evaluate() calls (hits + misses).
  [[nodiscard]] std::size_t lookups() const { return lookups_; }
  /// First visits served by the shared cache instead of simulating.
  [[nodiscard]] std::size_t shared_hits() const { return shared_hits_; }

  /// Invoked with the scenario content hash whenever a content-addressable
  /// candidate is actually *simulated* (never on a shared-cache hit —
  /// those rows are already persisted somewhere), so a front-end can
  /// checkpoint completed evaluations (the resume journal).
  std::function<void(const Candidate&, const std::string& content_hash,
                     const sim::ScenarioResult&)>
      on_measure;

  [[nodiscard]] const sim::CampaignSpec& base() const { return base_; }

 private:
  sim::CampaignSpec base_;
  std::shared_ptr<sim::ScenarioCache> cache_;
  /// Search-scoped schedule store: candidates differing only in ordering
  /// mode (and any knob absent from the schedule key) share one
  /// materialized schedule, its derived batched-ordering inputs and its
  /// timing — one NoC run whose wire order every other mode is scored
  /// over — so a mode sweep at a fixed grid point pays traffic
  /// generation, the arrival-BT kernel passes and the simulation once.
  /// Unbounded retention is deliberate — optimizers revisit points in
  /// arbitrary order, and a search's distinct schedules are few. Each
  /// retained timing holds about 1.3 bytes per flit-crossing (about
  /// 0.2 MiB for a placed ResNet on 8x8), no payloads.
  sim::ScheduleCache schedules_;
  std::map<std::string, sim::ScenarioResult> memo_;
  std::size_t lookups_ = 0;
  std::size_t simulated_ = 0;
  std::size_t shared_hits_ = 0;
};

}  // namespace nocbt::opt
