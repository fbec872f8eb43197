#pragma once
// Campaign execution layer: the sharded, cached, resumable sweep over a
// CampaignSpec's expansion. Composes the seams below it — planner
// (sim/campaign.h) for the grid, runner (sim/scenario_runner.h) for each
// measurement, cache (sim/scenario_cache.h) for cross-run/cross-front-end
// reuse, journal (sim/run_journal.h) for kill/resume — and owns none of
// the physics itself.
//
// A shard's rows take two passes at the same worker count: the first serves
// every row the journal or the scenario cache holds, the second simulates
// the rest, sharing one ScheduleCache built over exactly those rows. The
// first pass is skipped when neither store is on. The second pass hands
// rows out in timing_first_order, so the workers time different grid
// points at once instead of queueing on one point's timing run.
//
// Determinism contract: for a fixed spec, the rows a shard contributes are
// byte-identical whether they were simulated, served by the cache, or
// replayed from a journal (wall_ms_* and engine_reason excepted —
// wall-clock is measurement overhead, not a result, and persisted rows
// replay it as 0 and the fallback reason as empty). Sharding
// partitions the expansion by scenario index modulo the shard count, so
// the union of N shards is exactly the serial row set and merge_campaign
// can reassemble reports that cmp-match a serial run.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/campaign.h"

namespace nocbt::sim {

/// One slice of a deterministic N-way partition: this process runs the
/// scenarios whose expansion index i satisfies i % count == index.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;
};

/// Parse "i/N" (e.g. "0/4"); requires N >= 1 and i < N. Throws
/// std::invalid_argument with the offending text otherwise.
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& s);
[[nodiscard]] std::string to_string(const ShardSpec& shard);

/// The campaign-service knobs, all off by default (empty/1-way — plain
/// in-process sweep, byte-identical to the pre-service behavior).
struct ExecutionConfig {
  /// Content-addressed result store directory; "" disables persistence.
  /// Safe to share between concurrent shard processes and with
  /// nocbt_optimize searches over the same scenarios.
  std::string cache_dir;
  /// Checkpoint journal path; "" disables journaling. When the file
  /// already exists it must carry this campaign's content hash (else
  /// run_campaign throws) and its intact rows are skipped, not re-run.
  std::string journal_path;
  ShardSpec shard;
};

struct RunnerConfig {
  unsigned threads = 1;
  ExecutionConfig exec;
  /// Invoked after each scenario row is obtained — simulated or replayed
  /// (serialized by the runner, so the callback needs no locking of its
  /// own). Replayed rows report first. `done`/`total` count this shard's
  /// assignment.
  std::function<void(const ScenarioResult&, std::size_t done,
                     std::size_t total)>
      on_result;
};

/// The order in which run_campaign's second pass hands its rows to
/// `threads` workers. grid_points[k] is row k's grid point, numbered in
/// the order of each point's first row (ScheduleCache::grid_points()). A
/// point's first row runs its timing; the rest replay it. The first rows
/// of points 0..threads-1 go first, so each worker starts a different
/// timing run. Then, for each point g in turn, come g's other rows and
/// the first row of point g + threads. A point's first row is therefore
/// never more than `threads` points early, and live schedules stay
/// O(threads). Returns a permutation of the row indexes.
[[nodiscard]] std::vector<std::size_t> timing_first_order(
    std::span<const std::size_t> grid_points, std::size_t threads);

/// Run (this shard of) the sweep. Returns the assigned rows in grid order
/// plus how each was obtained; stats.warnings carries non-fatal
/// cache/journal damage diagnostics. Throws on a journal whose header
/// hash names a different campaign spec.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const RunnerConfig& runner = {});

}  // namespace nocbt::sim
