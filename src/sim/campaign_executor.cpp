#include "sim/campaign_executor.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/run_journal.h"
#include "sim/scenario_cache.h"
#include "sim/scenario_runner.h"

namespace nocbt::sim {

ShardSpec parse_shard_spec(const std::string& s) {
  const auto bad = [&]() -> std::invalid_argument {
    return std::invalid_argument(
        "parse_shard_spec: expected i/N with N >= 1 and i < N (e.g. \"0/4\"), "
        "got '" +
        s + "'");
  };
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) throw bad();
  const auto parse_u32 = [&](std::size_t first,
                             std::size_t last) -> std::uint32_t {
    std::uint32_t v = 0;
    const char* begin = s.data() + first;
    const char* end = s.data() + last;
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr != end || begin == end) throw bad();
    return v;
  };
  ShardSpec shard;
  shard.index = parse_u32(0, slash);
  shard.count = parse_u32(slash + 1, s.size());
  if (shard.count < 1 || shard.index >= shard.count) throw bad();
  return shard;
}

std::string to_string(const ShardSpec& shard) {
  return std::to_string(shard.index) + "/" + std::to_string(shard.count);
}

namespace {

/// How a row was obtained.
enum class Source { kJournal, kCache, kSimulated };

/// body(k) for every k < count, handed out in increasing order to
/// min(threads, count) workers; the caller runs the only one inline.
template <typename Body>
void parallel_for(std::size_t count, std::size_t threads, const Body& body) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t k = next++; k < count; k = next++) body(k);
  };
  const std::size_t pool = std::min(threads, count);
  if (pool <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(pool);
  for (std::size_t t = 0; t < pool; ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
}

}  // namespace

std::vector<std::size_t> timing_first_order(
    std::span<const std::size_t> grid_points, std::size_t threads) {
  if (threads < 1) threads = 1;
  std::size_t points = 0;
  for (const std::size_t g : grid_points) points = std::max(points, g + 1);
  std::vector<std::vector<std::size_t>> rows_of(points);
  for (std::size_t k = 0; k < grid_points.size(); ++k)
    rows_of[grid_points[k]].push_back(k);

  std::vector<std::size_t> order;
  order.reserve(grid_points.size());
  for (std::size_t g = 0; g < std::min(threads, points); ++g)
    order.push_back(rows_of[g].front());
  for (std::size_t g = 0; g < points; ++g) {
    order.insert(order.end(), rows_of[g].begin() + 1, rows_of[g].end());
    if (g + threads < points) order.push_back(rows_of[g + threads].front());
  }
  return order;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunnerConfig& runner) {
  const ExecutionConfig& exec = runner.exec;
  if (exec.shard.count < 1 || exec.shard.index >= exec.shard.count)
    throw std::invalid_argument("run_campaign: invalid shard " +
                                to_string(exec.shard));

  const std::vector<ScenarioSpec> scenarios = spec.expand();
  CampaignResult result;
  result.stats.grid_total = scenarios.size();

  // Content keys are only needed when some persistence layer is on; a
  // plain sweep skips the hashing (and the trace-file reads it may imply).
  const bool keyed = !exec.cache_dir.empty() || !exec.journal_path.empty();
  std::vector<ContentKey> keys;
  if (keyed) {
    keys.reserve(scenarios.size());
    for (const ScenarioSpec& s : scenarios)
      keys.push_back(scenario_content_key(s, spec.hooks.id));
  }

  std::unique_ptr<ScenarioCache> cache;
  if (!exec.cache_dir.empty())
    cache = std::make_unique<ScenarioCache>(exec.cache_dir);

  // Journal: validate any existing file against this spec's content hash,
  // preload its intact rows, then open for append (or start fresh).
  std::unique_ptr<RunJournal> journal;
  std::unordered_map<std::string, ScenarioResult> journaled;
  if (!exec.journal_path.empty()) {
    const std::string campaign_hash = campaign_content_hash(spec);
    JournalContents prior = read_journal(exec.journal_path);
    bool fresh = true;
    if (prior.exists && prior.header_ok) {
      if (prior.campaign_hash != campaign_hash)
        throw std::runtime_error(
            "run_campaign: journal '" + exec.journal_path +
            "' was written for campaign " + prior.campaign_hash +
            " but campaign '" + spec.name + "' hashes to " + campaign_hash +
            " — refusing to mix rows across differing campaign specs (point "
            "resume= at a fresh file or rerun the original spec)");
      journaled = std::move(prior.rows);
      fresh = false;
    }
    for (std::string& w : prior.warnings)
      result.stats.warnings.push_back(std::move(w));
    // Damaged records were diagnosed above; compact them away by rewriting
    // the journal from its intact rows, so the next resume is warning-free
    // instead of re-reporting the same torn fragment forever.
    const bool compact = !fresh && !prior.warnings.empty();
    journal = std::make_unique<RunJournal>(exec.journal_path, campaign_hash,
                                           scenarios.size(),
                                           fresh || compact);
    if (compact)
      for (const auto& [hash, row] : journaled)
        journal->append(hash, prior.indexes.at(hash), row);
  }

  // This shard's slice of the expansion, in grid order.
  std::vector<std::size_t> assigned;
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (i % exec.shard.count == exec.shard.index) assigned.push_back(i);
  result.stats.assigned = assigned.size();
  result.rows.resize(assigned.size());

  std::size_t done = 0;       // guarded by report_mutex
  std::mutex report_mutex;    // serializes on_result + done
  std::mutex persist_mutex;   // serializes journal appends + stat counts
  // Slot j's row is in: count how it was obtained, persist it where it is
  // not yet, and report it.
  const auto land = [&](std::size_t j, ScenarioResult&& row, Source source,
                        std::size_t cycle_runs) {
    const std::size_t i = assigned[j];
    {
      const std::lock_guard<std::mutex> lock(persist_mutex);
      switch (source) {
        case Source::kJournal: ++result.stats.journal_hits; break;
        case Source::kCache: ++result.stats.cache_hits; break;
        case Source::kSimulated: ++result.stats.simulated; break;
      }
      result.stats.cycle_runs += cycle_runs;
      if (keyed && keys[i].cacheable) {
        if (source == Source::kSimulated && cache)
          cache->store(keys[i].hash, row);
        if (journal && source != Source::kJournal)
          journal->append(keys[i].hash, i, row);
      }
    }
    result.rows[j] = std::move(row);
    if (runner.on_result) {
      // done is incremented under the same lock as the callback so the
      // reported counts never regress.
      const std::lock_guard<std::mutex> lock(report_mutex);
      runner.on_result(result.rows[j], ++done, assigned.size());
    }
  };
  const std::size_t threads = runner.threads < 1 ? 1 : runner.threads;

  // Pass 1: serve every row the journal or the scenario cache holds.
  std::vector<char> served(assigned.size(), 0);
  if (keyed)
    parallel_for(assigned.size(), threads, [&](std::size_t j) {
      const std::size_t i = assigned[j];
      if (!keys[i].cacheable) return;
      const auto it = journaled.find(keys[i].hash);
      if (it != journaled.end()) {
        ScenarioResult row = it->second;  // read-only during the sweep
        row.spec = scenarios[i];
        served[j] = 1;
        land(j, std::move(row), Source::kJournal, 0);
      } else if (cache) {
        if (std::optional<ScenarioResult> row =
                cache->lookup(scenarios[i], keys[i].hash)) {
          served[j] = 1;
          land(j, std::move(*row), Source::kCache, 0);
        }
      }
    });

  // Pass 2: simulate the rest, timing first. One schedule per traffic
  // stream: the mode rows of a grid point share their materialized
  // generator output (expand() gives them one seed) and its one NoC timing
  // run, and the cache drops it after the last of them.
  std::vector<std::size_t> left;
  std::vector<const ScenarioSpec*> left_specs;
  for (std::size_t j = 0; j < assigned.size(); ++j)
    if (!served[j]) {
      left.push_back(j);
      left_specs.push_back(&scenarios[assigned[j]]);
    }
  ScheduleCache schedules(left_specs);
  const std::vector<std::size_t> order =
      timing_first_order(schedules.grid_points(), threads);
  parallel_for(order.size(), threads, [&](std::size_t pos) {
    const std::size_t k = order[pos];
    std::size_t cycle_runs = 0;
    ScenarioResult row = run_scenario_shared(*left_specs[k], spec.hooks,
                                             &schedules, &cycle_runs);
    land(left[k], std::move(row), Source::kSimulated, cycle_runs);
  });

  if (cache)
    for (std::string& w : cache->take_diagnostics())
      result.stats.warnings.push_back(std::move(w));
  return result;
}

}  // namespace nocbt::sim
