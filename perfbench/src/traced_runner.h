#pragma once
// Traced mirror of the campaign runner.
//
// The library has no spans of its own yet, so the traced run builds every
// row again from the layers' public calls — the same calls
// sim::run_scenario_shared and sim::run_campaign make as of this commit —
// and puts one span around each call: never per flit, at most per
// variant. Spans do not nest, so a layer's self time is the sum of its
// spans. The benchmark checks that the mirrored rows equal the program's
// own rows, so a mirror that drifts from the runner fails the run instead
// of reporting a split of different work.

#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "opt/coopt.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "workloads.h"

namespace perfbench {

enum class Layer : std::size_t {
  kPlan,         ///< CampaignSpec::expand, scenario_content_key
  kMaterialize,  ///< sim::ScheduleCache::get, once per traffic stream
  kDerive,       ///< SharedSchedule::derived
  kOrder,        ///< OrderingStrategy::order_batch / order
  kPack,         ///< permutation apply + accel::pack_half_half
  kAnalytical,   ///< AnalyticalEngine inject + run
  kCycle,        ///< Network inject/step loop
  kEnergy,       ///< EnergyModel energy/power/annotate
  kCache,        ///< ScenarioCache lookup / store
  kJournal,      ///< read_journal, RunJournal open / append
  kReport,       ///< json_report
  kSearch,       ///< run_coopt minus its evaluations
};
inline constexpr std::size_t kLayerCount = 12;

/// "<module>.<layer>" metric prefix of a layer, e.g. "noc.cycle".
[[nodiscard]] const char* layer_name(Layer layer);

/// Self time and calls per layer, plus the counters recorded at the same
/// boundaries. One instance per worker thread; merged with add().
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, 8> order_ns_by_mode{};  ///< by OrderingMode
  std::uint64_t order_values = 0;    ///< values passed to order calls
  std::uint64_t packed_flits = 0;
  std::uint64_t analytical_attempts = 0;
  std::uint64_t analytical_accepted = 0;
  std::uint64_t analytical_rejected_ns = 0;
  std::uint64_t cycle_runs = 0;
  std::uint64_t cycle_flits = 0;     ///< flits delivered by cycle runs
  std::uint64_t schedules = 0;       ///< schedules materialized
  std::uint64_t rows = 0;            ///< rows built by the mirror
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookup_ns = 0;
  std::uint64_t cache_store_ns = 0;
  std::uint64_t cache_wait_ns = 0;   ///< waiting for the persistence lock

  void add(const LayerTotals& other);
};

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Charges the time from construction to close() (or destruction) to one
/// layer.
class Span {
 public:
  Span(LayerTotals& totals, Layer layer) noexcept
      : totals_(totals), layer_(layer), start_(now_ns()) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record the span once; returns its duration in ns.
  std::uint64_t close() noexcept {
    if (open_) {
      elapsed_ = now_ns() - start_;
      open_ = false;
      const auto i = static_cast<std::size_t>(layer_);
      totals_.ns[i] += elapsed_;
      ++totals_.calls[i];
    }
    return elapsed_;
  }

 private:
  LayerTotals& totals_;
  Layer layer_;
  std::uint64_t start_;
  std::uint64_t elapsed_ = 0;
  bool open_ = true;
};

/// Run fn(0) .. fn(n-1) on n threads; rethrows the first failure after
/// every thread has joined.
template <class Fn>
void run_parallel(std::size_t n, Fn fn) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t k = 0; k < n; ++k)
    threads.emplace_back([&, k] {
      try {
        fn(k);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

struct TracedPass {
  LayerTotals totals;
  std::uint64_t wall_ns = 0;
  /// Thread-time the pass had: its serial phases plus pool size x the
  /// worker pool's wall time. Layer shares are self time over this.
  std::uint64_t capacity_ns = 0;
  nocbt::sim::CampaignResult result;  ///< campaign workloads
  std::string report;                 ///< campaign workloads: json_report
};

/// run_campaign + json_report rebuilt from the layers' calls. Supports the
/// executor features the workloads use: threads, cache_dir and a fresh
/// journal (an existing journal throws).
[[nodiscard]] TracedPass traced_campaign(const nocbt::sim::CampaignSpec& spec,
                                         const nocbt::sim::ExecutionConfig& exec,
                                         unsigned threads);

/// The candidates a finished search evaluated, in first-visit order: the
/// baseline mode sweep, every search step, the winner.
[[nodiscard]] std::vector<nocbt::opt::Candidate> evaluated_candidates(
    const nocbt::opt::SearchSpace& space,
    const nocbt::opt::CoOptResult& result);

/// One co-optimizer search traced: every candidate `untraced` evaluated is
/// rebuilt from the layers' calls, then run_coopt runs again served from
/// those rows, so its span holds the search itself. `rows` receives the
/// rebuilt rows in evaluated_candidates order and `replay` the second
/// search's result; `replay_runs` counts what it still had to simulate.
[[nodiscard]] TracedPass traced_coopt(const Workload& workload,
                                      const nocbt::opt::CoOptConfig& search,
                                      const nocbt::opt::CoOptResult& untraced,
                                      std::vector<nocbt::sim::ScenarioResult>& rows,
                                      nocbt::opt::CoOptResult& replay,
                                      std::size_t& replay_runs);

}  // namespace perfbench
