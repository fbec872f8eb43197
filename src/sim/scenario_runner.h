#pragma once
// Scenario execution seam: run one expanded scenario (its O0 baseline and
// its ordering mode) through whichever backend its spec selects. This is
// the unit below the executor — it knows nothing about grids, shards,
// journals or persistent caching; it measures exactly one ScenarioSpec.
//
// Time once, score many. A grid point — every mode row of one traffic
// stream — runs its O0 baseline once. A synthetic point is simulated with
// O0 payloads through the spec's engine: under engine=auto the zero-load
// analytical backend when it proves the schedule exact, the requested
// cycle engine otherwise. That run yields the O0 row and records every
// link's wire order. Ordering only permutes values inside a packet, so
// every other mode crosses each link in that same order: its row takes
// the run's timing (cycles, transport stats, SimProfile) and scores its
// own payloads by replaying them over the recorded order
// (noc::score_wire_order). A model point's baseline is one O0 inference
// through NocDnaPlatform; each other mode row runs its own inference,
// since a mode can change a model run's flit counts. That is how
// bench/fig12_noc_sizes reproduces its paper figure through this engine.

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/data_format.h"
#include "noc/wire_order.h"
#include "ordering/strategy.h"
#include "sim/campaign.h"
#include "sim/traffic_gen.h"

namespace nocbt::sim {

class ScenarioCache;  // sim/scenario_cache.h

/// Everything one NoC run yields — the parts of a row a run measures.
struct RunOutcome {
  std::uint64_t bt = 0;  ///< in-scope BT
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t peak_backlog = 0;
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  bool drained = false;  ///< false = hit the max_cycles stall guard
  noc::SimProfile sim;   ///< step-loop counters (deterministic)
  double wall_ms = 0.0;  ///< host wall-clock of the run (nondeterministic)
  std::vector<noc::LinkObservation> links;  ///< frozen per-link counters
};

/// A materialized schedule, the spec it was materialized from, and three
/// blocks built lazily beside it and then shared — through the campaign
/// ScheduleCache, by every mode row of a grid point:
///   - the derived inputs of batched payload ordering: the per-stream
///     value concatenations and arrival-order sequence-BT hints that let
///     one OrderingStrategy::order_batch call (one kernel pass per
///     candidate ordering) score every window of the scenario;
///   - the weights stream's raw greedy chain, the order_batch hint of the
///     chain, hdchain and hybrid rows, built when the first of them asks;
///   - the timing block: the grid point's one O0 run.
/// `spec` is the first of the grid point's rows to ask for the schedule;
/// the schedule cache key pins every field the blocks read, so the other
/// rows would build the same ones. The request list is immutable after
/// materialization; a model spec's is empty, since its inferences make
/// their own traffic.
struct SharedSchedule {
  ScenarioSpec spec;
  InjectionSchedule requests;

  struct Derived {
    /// True when every request carries equally-sized weight/input windows
    /// (the last may be ragged), i.e. the concatenations below form a
    /// valid order_batch layout. False routes through the per-request
    /// ordering path with identical results.
    bool uniform = false;
    std::size_t window_values = 0;
    std::vector<std::uint32_t> weights_concat;
    std::vector<std::uint32_t> inputs_concat;
    /// Arrival-order sequence BT per window — the order_batch hint that
    /// chain-class strategies would otherwise recompute per mode row.
    std::vector<std::uint64_t> weights_bt;
    std::vector<std::uint64_t> inputs_bt;
  };

  /// Derived block, built exactly once (thread-safe) for spec.format. A
  /// call with another format is a caller bug: it throws std::logic_error
  /// naming both formats.
  [[nodiscard]] const Derived& derived(DataFormat format) const;

  /// raw_chain_batch over the derived weights stream, built exactly once
  /// (thread-safe) on first use, so a grid point without chain-class rows
  /// never pays for it. Only the weights are chained: every chain-class
  /// mode keeps pairs affiliated. Throws std::logic_error when the layout
  /// is not uniform (such schedules order per request). `built` (may be
  /// null) is set to whether this call built it.
  [[nodiscard]] const ordering::RawChain& weights_chain(
      bool* built = nullptr) const;

  /// The grid point's one O0 run: for a synthetic point, O0 payloads
  /// through the spec's engine, recording the wire order; for a model
  /// point, the O0 inference. Holds no payloads — only the O0 outcome and
  /// the delta-coded wire order (a byte or two per flit-crossing).
  struct Timing {
    RunOutcome baseline;   ///< the O0 run; links included
    noc::WireOrder order;  ///< every link's flit sequence (synthetic, drained)
    /// Why engine=auto fell back to a cycle engine: the analytical
    /// backend's first clashing link and cycle, or its unsupported-config
    /// reason. Empty when it did not fall back.
    std::string engine_reason;
    std::exception_ptr error;  ///< the run threw; every row reports it
  };

  /// Timing block for `spec`, built exactly once (thread-safe: the first
  /// caller runs it, concurrent callers wait); only a model spec reads
  /// `hooks`. `built` (may be null) is set to whether this call ran it.
  [[nodiscard]] const Timing& timing(const ModelHooks& hooks,
                                     bool* built = nullptr) const;

 private:
  mutable std::once_flag once_;
  mutable Derived derived_;
  mutable std::once_flag chain_once_;
  mutable ordering::RawChain chain_;
  mutable std::once_flag timing_once_;
  mutable Timing timing_;
};

using SharedSchedulePtr = std::shared_ptr<const SharedSchedule>;

/// Campaign-scoped schedule store: specs that share every knob the
/// schedule and its timing run read (all mode rows of one grid point —
/// expand() derives their seeds mode-independently) generate their
/// schedule once, and with it the SharedSchedule::Derived ordering inputs
/// and the Timing block. Model specs are keyed and counted like the rest;
/// the key leaves out the model hooks, so one cache serves one campaign's
/// hooks. Thread-safe; the first worker to request a key materializes it
/// while later workers block on the shared future.
/// To bound campaign memory, an entry is dropped once every row expected
/// to carry its key has looked it up.
class ScheduleCache {
 public:
  /// Every key is expected `uses_per_key` times (one per mode row).
  explicit ScheduleCache(std::size_t uses_per_key)
      : uses_per_key_(uses_per_key < 1 ? 1 : uses_per_key) {}

  /// Each key is expected once per spec in `rows` that carries it — the
  /// rows one process simulates, e.g. what is left of a shard's slice
  /// once the journal and scenario cache have served theirs. The keys
  /// are counted here, and each row's grid point noted; the specs are
  /// not kept.
  explicit ScheduleCache(std::span<const ScenarioSpec* const> rows);

  [[nodiscard]] SharedSchedulePtr get(const ScenarioSpec& spec);

  /// The grid point of each row the span constructor counted, numbered in
  /// the order of each point's first row: rows share a schedule and its
  /// timing run exactly when they share a grid point. Empty after the
  /// uses_per_key constructor.
  [[nodiscard]] const std::vector<std::size_t>& grid_points() const noexcept {
    return grid_points_;
  }

 private:
  struct Entry {
    std::shared_future<SharedSchedulePtr> future;  ///< invalid until a get()
    std::size_t remaining = 0;  ///< expected get() calls still to come
    std::size_t grid_point = 0;  ///< its number in grid_points()
  };

  std::size_t uses_per_key_;
  std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::vector<std::size_t> grid_points_;
};

/// Run one already-expanded scenario (both ordering variants).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const ModelHooks& hooks);

/// run_scenario sharing a campaign-scoped ScheduleCache (may be null) —
/// the executor's per-row entry point. `cycle_runs` (may be null) is set
/// to the Network simulations this call ran: one when it built its grid
/// point's timing on a cycle engine (none when it reused one, the
/// analytical engine served it or the timing run threw), plus one for a
/// non-O0 model row's own inference.
[[nodiscard]] ScenarioResult run_scenario_shared(
    const ScenarioSpec& spec, const ModelHooks& hooks,
    ScheduleCache* schedules, std::size_t* cycle_runs = nullptr);

/// Expand a single-point campaign (every grid axis holding exactly one
/// value, replicates == 1) and run its only scenario — the co-optimizer's
/// inner-loop scorer. The result is byte-identical to the matching row of
/// run_campaign on the same spec: expansion derives the same name and
/// seed, and a row's measurements do not depend on which mode row of its
/// grid point ran the shared timing. Throws std::invalid_argument when the grid expands to
/// more than one scenario.
[[nodiscard]] ScenarioResult run_single_scenario(const CampaignSpec& spec);

/// One cached single-scenario evaluation: the row plus how it was
/// obtained, so callers (opt::Evaluator, warm-rerun gates) can count real
/// simulations against cache hits.
struct SingleRunOutcome {
  ScenarioResult row;
  bool cache_hit = false;    ///< served from `cache` without simulating
  std::string content_hash;  ///< empty when the scenario is uncacheable
};

/// run_single_scenario through a content-addressed ScenarioCache (may be
/// null — then it always simulates). On a miss the fresh row is stored
/// back, so co-optimizer searches and campaign sweeps share hits.
/// `schedules` (may be null) shares materialized schedules, their derived
/// batched-ordering inputs and their timing across calls — opt::Evaluator
/// passes its own so candidates differing only in ordering mode reuse one
/// schedule, one set of arrival-BT hints, one raw chain and one NoC run.
[[nodiscard]] SingleRunOutcome run_single_scenario_cached(
    const CampaignSpec& spec, ScenarioCache* cache,
    ScheduleCache* schedules = nullptr);

}  // namespace nocbt::sim
