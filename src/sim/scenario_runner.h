#pragma once
// Scenario execution seam: run one expanded scenario (its O0 baseline and
// its ordering mode) through whichever backend its spec selects. This is
// the unit below the executor — it knows nothing about grids, shards,
// journals or persistent caching; it measures exactly one ScenarioSpec.
//
// Time once, score many. A synthetic grid point — every mode row of one
// traffic stream — is simulated once, with O0 payloads, through the
// spec's engine: under engine=auto the zero-load analytical backend when
// it proves the schedule exact, the requested cycle engine otherwise.
// That run yields the O0 row and records every link's wire order.
// Ordering only permutes values inside a packet, so every other mode
// crosses each link in that same order: its row takes the run's timing
// (cycles, transport stats, SimProfile) and scores its own payloads by
// replaying them over the recorded order (noc::score_wire_order). Model
// scenarios run full inferences through NocDnaPlatform instead, twice
// (O0 and the mode), which is how bench/fig12_noc_sizes reproduces its
// paper figure through this engine.

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/data_format.h"
#include "noc/wire_order.h"
#include "sim/campaign.h"
#include "sim/traffic_gen.h"

namespace nocbt::sim {

class ScenarioCache;  // sim/scenario_cache.h

/// A generator's fully-materialized injection schedule: the pre-ordering
/// traffic every variant of a scenario (baseline, ordered, analytical or
/// cycle) replays. Immutable once built, so workers share it freely.
using InjectionSchedule = std::vector<InjectionRequest>;

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

/// A materialized schedule plus two blocks built lazily beside it and then
/// shared — through the campaign ScheduleCache, by every mode row of a
/// grid point:
///   - the derived inputs of batched payload ordering: the per-stream
///     value concatenations and arrival-order sequence-BT hints that let
///     one OrderingStrategy::order_batch call (one kernel pass per
///     candidate ordering) score every window of the scenario;
///   - the timing block: the grid point's one NoC run.
/// The request list is immutable after materialization.
struct SharedSchedule {
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

  /// Derived block, built exactly once (thread-safe) for the format of
  /// the first call. The schedule cache key pins the format, so a later
  /// call with another format is a caller bug: it throws std::logic_error
  /// naming both formats.
  [[nodiscard]] const Derived& derived(DataFormat format) const;

  /// The grid point's one NoC run: O0 payloads through the spec's engine,
  /// recording the wire order. Holds no payloads — only the O0 outcome
  /// and the delta-coded wire order (a byte or two per flit-crossing).
  struct Timing {
    RunOutcome baseline;   ///< the O0 run; links included
    noc::WireOrder order;  ///< every link's flit sequence; empty unless drained
    /// Why engine=auto fell back to a cycle engine: the analytical
    /// backend's first clashing link and cycle, or its unsupported-config
    /// reason. Empty when it did not fall back.
    std::string engine_reason;
    std::exception_ptr error;  ///< the run threw; every row reports it
  };

  /// Timing block, built exactly once (thread-safe: the first caller runs
  /// it, concurrent callers wait) for the spec of the first call. The
  /// schedule cache key pins every field the run reads, so a later call
  /// whose spec keys differently is a caller bug: it throws
  /// std::logic_error. `built` (may be null) is set to whether this call
  /// ran it.
  [[nodiscard]] const Timing& timing(const ScenarioSpec& spec,
                                     bool* built = nullptr) const;

 private:
  mutable std::once_flag once_;
  mutable DataFormat format_{};  // written once, inside once_
  mutable Derived derived_;
  mutable std::once_flag timing_once_;
  mutable std::string timing_key_;  // written once, inside timing_once_
  mutable Timing timing_;
};

using SharedSchedulePtr = std::shared_ptr<const SharedSchedule>;

/// Campaign-scoped schedule store: specs that share every knob the
/// schedule and its timing run read (all mode rows of one traffic stream —
/// expand() derives their seeds mode-independently) generate their
/// schedule once, and with it the SharedSchedule::Derived ordering inputs
/// and the Timing block. Thread-safe; the first worker to request a key
/// materializes it while later workers block on the shared future.
/// To bound campaign memory, an entry is dropped once every row expected
/// to carry its key has either looked it up (get) or been served without
/// simulating (skip).
class ScheduleCache {
 public:
  /// Every key is expected `uses_per_key` times (one per mode row).
  explicit ScheduleCache(std::size_t uses_per_key)
      : uses_per_key_(uses_per_key < 1 ? 1 : uses_per_key) {}

  /// Each key is expected once per synthetic spec in `rows` that carries
  /// it — the rows one process runs, e.g. a shard's slice of the grid.
  /// Model specs never look up and are not counted. The specs must
  /// outlive the cache: they are keyed at the first get(), so a sweep
  /// served entirely without simulating keys none of them.
  explicit ScheduleCache(std::vector<const ScenarioSpec*> rows)
      : uses_per_key_(1), rows_(std::move(rows)) {}

  [[nodiscard]] SharedSchedulePtr get(const ScenarioSpec& spec);

  /// `spec`'s row was served without simulating (from a scenario cache or
  /// a journal): count its expected use without materializing anything.
  /// `spec` must outlive the cache.
  void skip(const ScenarioSpec& spec);

 private:
  struct Entry {
    std::shared_future<SharedSchedulePtr> future;  ///< invalid until a get()
    std::size_t remaining = 0;
  };
  /// `key`'s entry, created with its expected uses if absent. Caller
  /// holds mutex_.
  Entry& entry(const std::string& key);
  /// Count one use of `key`, dropping its entry after the last. Caller
  /// holds mutex_.
  void use(const std::string& key);
  /// Key rows_ into uses_, then apply the skips made before. Caller holds
  /// mutex_.
  void count_rows();

  std::size_t uses_per_key_;
  std::mutex mutex_;
  std::vector<const ScenarioSpec*> rows_;     ///< not yet keyed into uses_
  std::vector<const ScenarioSpec*> skipped_;  ///< skipped while rows_ waits
  /// Per-key expected uses of the rows keyed so far; keys absent here
  /// expect uses_per_key_.
  std::unordered_map<std::string, std::size_t> uses_;
  std::unordered_map<std::string, Entry> entries_;
};

/// Run one already-expanded scenario (both ordering variants).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const ModelHooks& hooks);

/// run_scenario sharing a campaign-scoped ScheduleCache (may be null) —
/// the executor's per-row entry point. `cycle_runs` (may be null) is set
/// to the Network simulations this call ran: 1 when it built its grid
/// point's timing on a cycle engine, 0 when it reused one, the analytical
/// engine served it or the timing run threw, two per model row (one for
/// an O0 model row).
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
/// schedule, one set of arrival-BT hints and one NoC run.
[[nodiscard]] SingleRunOutcome run_single_scenario_cached(
    const CampaignSpec& spec, ScenarioCache* cache,
    ScheduleCache* schedules = nullptr);

}  // namespace nocbt::sim
