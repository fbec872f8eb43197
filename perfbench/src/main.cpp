// nocbt_perfbench: one workload of the end-to-end campaign benchmark.
//
//   nocbt_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--small] [--expect-digest HEX] [--store DIR]
//                   [--setup-only]
//
// Runs cold passes of the workload through the library's public entry
// points (sim::run_campaign + sim::json_report, opt::run_coopt) until
// --seconds is used up, checks every pass, and prints one JSON object on
// stdout. With --trace 1 it alternates untraced passes with traced passes
// (traced_runner.h) and reports the per-layer split instead of the
// end-to-end numbers. --setup-only stops where the first timed call would
// start, so a caller can time set-up from process start. perfbench/run.py
// builds this binary and wraps it in the benchmark's command-line contract.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/json_writer.h"
#include "opt/coopt.h"
#include "ordering/bt_kernel_backend.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"
#include "traced_runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace nocbt;
namespace fs = std::filesystem;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  bool setup_only = false;
  std::string expect_digest;
  std::string store = ".bench_build/perfbench-store";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "nocbt_perfbench: %s\nusage: nocbt_perfbench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--small] "
               "[--expect-digest HEX] [--store DIR] [--setup-only]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") a.workload = next();
      else if (flag == "--seed") a.seed = std::stoull(next());
      else if (flag == "--seconds") a.seconds = std::stod(next());
      else if (flag == "--trace") a.trace = std::stoi(next()) != 0;
      else if (flag == "--small") a.small = true;
      else if (flag == "--setup-only") a.setup_only = true;
      else if (flag == "--expect-digest") a.expect_digest = next();
      else if (flag == "--store") a.store = next();
      else usage("unknown argument " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counters that depend only on the workload and seed: equal on every
/// pass, never mixed with wall-clock.
struct Counters {
  std::uint64_t cycles_stepped = 0;
  std::uint64_t components_stepped = 0;
  double analytical_row_share = 0.0;
  double cache_hit_ratio = 0.0;
  double memo_hit_ratio = 0.0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

/// One untraced pass: the timed call and what it produced.
struct Pass {
  double seconds = 0.0;
  std::size_t rows = 0;
  std::size_t failed = 0;
  std::string digest;
  Counters counters;
  double program_wall_ms = 0.0;
};

double elapsed_s(std::uint64_t since) {
  return static_cast<double>(now_ns() - since) / 1e9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string digest_of(const std::string& report) {
  StableHash h;
  h.add(report);
  return h.hex();
}

/// Removes the workload's scratch store when the run ends.
class ScratchStore {
 public:
  explicit ScratchStore(fs::path root) : root_(std::move(root)) { reset(); }
  ~ScratchStore() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  /// Empty the store so the next pass starts cold.
  void reset() const {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  [[nodiscard]] std::string cache_dir() const { return (root_ / "cache").string(); }
  [[nodiscard]] std::string journal() const { return (root_ / "journal").string(); }

 private:
  fs::path root_;
};

class Runner {
 public:
  Runner(Workload w, const Args& args)
      : w_(std::move(w)),
        trace_(args.trace),
        expect_digest_(args.expect_digest),
        store_(fs::path(args.store) /
               (w_.name + "-" + std::to_string(::getpid()))) {}

  /// The cold pass service_rerun needs before its first timed rerun: a
  /// fresh store filled through cache_dir plus a resume journal. Its rows
  /// are the reference every rerun must reproduce.
  std::optional<Pass> prime() {
    if (w_.kind != WorkloadKind::kRerun) return std::nullopt;
    store_.reset();
    const std::uint64_t start = now_ns();
    sim::CampaignResult r = sim::run_campaign(
        w_.campaign, runner_config(store_.cache_dir(), store_.journal()));
    const std::string report = sim::json_report(w_.campaign, r);
    const double secs = elapsed_s(start);
    check(r.stats.simulated == r.rows.size(),
          "cold pass served rows from a fresh store");
    return finish(secs, std::move(r), report, true);
  }

  Pass untraced() {
    switch (w_.kind) {
      case WorkloadKind::kSweep: {
        const std::uint64_t start = now_ns();
        sim::CampaignResult r =
            sim::run_campaign(w_.campaign, runner_config("", ""));
        const std::string report = sim::json_report(w_.campaign, r);
        return finish(elapsed_s(start), std::move(r), report,
                      reference_report_.empty());
      }
      case WorkloadKind::kRerun: {
        const std::uint64_t start = now_ns();
        sim::CampaignResult r = sim::run_campaign(
            w_.campaign, runner_config(store_.cache_dir(), ""));
        const std::string report = sim::json_report(w_.campaign, r);
        const double secs = elapsed_s(start);
        check(r.stats.simulated == 0, "warm pass simulated " +
                                          std::to_string(r.stats.simulated) +
                                          " rows");
        check(report == reference_report_,
              "warm report differs from the cold report");
        return finish(secs, std::move(r), report, false);
      }
      case WorkloadKind::kCoopt:
        return coopt_pass();
    }
    throw std::logic_error("unhandled workload kind");
  }

  TracedPass traced() {
    switch (w_.kind) {
      case WorkloadKind::kSweep:
        return compare(traced_campaign(w_.campaign, {}, w_.threads));
      case WorkloadKind::kRerun: {
        // The cold pass and the rerun, traced as one pass.
        store_.reset();
        sim::ExecutionConfig exec;
        exec.cache_dir = store_.cache_dir();
        exec.journal_path = store_.journal();
        TracedPass p = compare(traced_campaign(w_.campaign, exec, w_.threads));
        exec.journal_path.clear();
        TracedPass warm = traced_campaign(w_.campaign, exec, w_.threads);
        check(warm.report == reference_report_,
              "traced warm report differs from the cold report");
        check(warm.totals.rows == 0, "traced warm pass simulated rows");
        p.totals.add(warm.totals);
        p.wall_ns += warm.wall_ns;
        p.capacity_ns += warm.capacity_ns;
        p.result = std::move(warm.result);
        return p;
      }
      case WorkloadKind::kCoopt: {
        const std::size_t n = w_.searches.size();
        std::vector<TracedPass> parts(n);
        std::vector<std::vector<sim::ScenarioResult>> rows(n);
        std::vector<opt::CoOptResult> replays(n);
        std::vector<std::size_t> replay_runs(n);
        const std::uint64_t start = now_ns();
        run_parallel(n, [&](std::size_t k) {
          parts[k] = traced_coopt(w_, w_.searches[k], coopt_last_[k], rows[k],
                                  replays[k], replay_runs[k]);
        });
        TracedPass p;
        p.wall_ns = now_ns() - start;
        p.capacity_ns = n * p.wall_ns;
        std::vector<sim::ScenarioResult> all_rows;
        for (std::size_t k = 0; k < n; ++k) {
          p.totals.add(parts[k].totals);
          all_rows.insert(all_rows.end(), rows[k].begin(), rows[k].end());
          check(replay_runs[k] == 0, "a replayed search simulated " +
                                         std::to_string(replay_runs[k]) +
                                         " rows");
          // Served from the rebuilt rows, the replay simulates nothing;
          // the rest of its result must match the search's.
          replays[k].evaluations = coopt_last_[k].evaluations;
        }
        check(all_rows == reference_rows_,
              "traced rows differ from the searches' rows");
        check(coopt_digest(replays) == reference_digest_,
              "a replayed search reached a different result");
        return p;
      }
    }
    throw std::logic_error("unhandled workload kind");
  }

  void check(bool ok, const std::string& what) {
    if (!ok && std::find(failures_.begin(), failures_.end(), what) ==
                   failures_.end())
      failures_.push_back(what);
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  sim::RunnerConfig runner_config(const std::string& cache_dir,
                                  const std::string& journal) const {
    sim::RunnerConfig rc;
    rc.threads = w_.threads;
    rc.exec.cache_dir = cache_dir;
    rc.exec.journal_path = journal;
    return rc;
  }

  static std::string coopt_digest(const std::vector<opt::CoOptResult>& rs) {
    std::string text;
    for (const opt::CoOptResult& r : rs) {
      sim::CampaignResult best;
      best.rows = {r.best_result};
      text += opt::coopt_report(r) + "\n" +
              sim::json_report(r.winning, best) + "\n";
    }
    return digest_of(text);
  }

  /// The workload's searches side by side, each with a fresh evaluator.
  Pass coopt_pass() {
    const std::size_t n = w_.searches.size();
    std::vector<opt::CoOptResult> results(n);
    std::vector<std::uint64_t> done(n);
    std::vector<std::size_t> lookups(n);
    std::vector<std::size_t> runs(n);
    std::vector<std::vector<sim::ScenarioResult>> rows(n);
    const std::uint64_t start = now_ns();
    run_parallel(n, [&](std::size_t k) {
      opt::Evaluator eval(w_.campaign);
      results[k] = opt::run_coopt(eval, w_.space, w_.searches[k]);
      done[k] = now_ns();
      lookups[k] = eval.lookups();
      runs[k] = eval.runs();
      // Every evaluated row, read back from the evaluator's memo.
      for (const opt::Candidate& c : evaluated_candidates(w_.space, results[k]))
        rows[k].push_back(eval.evaluate(c));
    });

    Pass p;
    p.seconds = static_cast<double>(*std::max_element(done.begin(), done.end()) -
                                    start) / 1e9;
    sim::CampaignResult all;
    double all_lookups = 0.0;
    double all_runs = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const opt::CoOptResult& r = results[k];
      p.rows += r.evaluations;
      all_lookups += static_cast<double>(lookups[k]);
      all_runs += static_cast<double>(runs[k]);
      check(r.best_power_mw <= r.baseline_power_mw,
            "search result is worse than the best single mode");
      check(rows[k].size() == r.evaluations,
            "evaluated candidates do not match the evaluation count");
      all.rows.insert(all.rows.end(), rows[k].begin(), rows[k].end());
    }
    p.counters.memo_hit_ratio = ratio(all_lookups - all_runs, all_lookups);
    p.digest = coopt_digest(results);
    add_row_counters(all, p);
    check_digest(p.digest);
    if (reference_rows_.empty()) {
      reference_rows_ = std::move(all.rows);
      reference_digest_ = p.digest;
    }
    coopt_last_ = std::move(results);
    return p;
  }

  void add_row_counters(const sim::CampaignResult& r, Pass& p) const {
    std::size_t analytical = 0;
    for (const sim::ScenarioResult& row : r.rows) {
      if (!row.error.empty()) ++p.failed;
      if (row.sim.engine == noc::SimEngine::kAnalytical) ++analytical;
      p.counters.cycles_stepped += row.sim.cycles_stepped;
      p.counters.components_stepped += row.sim.components_stepped;
      p.program_wall_ms += row.wall_ms_baseline + row.wall_ms_ordered;
    }
    const auto rows = static_cast<double>(r.rows.size());
    p.counters.analytical_row_share = ratio(static_cast<double>(analytical), rows);
    if (w_.kind != WorkloadKind::kCoopt)
      p.counters.cache_hit_ratio =
          ratio(static_cast<double>(r.stats.cache_hits), rows);
  }

  void check_digest(const std::string& digest) {
    check(expect_digest_.empty() || digest == expect_digest_,
          "report digest " + digest + " differs from the recorded " +
              expect_digest_);
  }

  Pass finish(double secs, sim::CampaignResult r, const std::string& report,
              bool keep_rows) {
    Pass p;
    p.seconds = secs;
    p.rows = r.rows.size();
    p.digest = digest_of(report);
    add_row_counters(r, p);
    check_digest(p.digest);
    check(r.stats.warnings.empty(), "the executor reported warnings");
    if (keep_rows) {
      if (trace_) reference_rows_ = std::move(r.rows);
      reference_report_ = report;
    }
    return p;
  }

  TracedPass compare(TracedPass p) {
    check(p.result.rows == reference_rows_,
          "traced rows differ from the untraced rows");
    check(p.report == reference_report_,
          "traced report differs from the untraced report");
    check(p.result.stats.warnings.empty(), "the traced run reported warnings");
    return p;
  }

  Workload w_;
  bool trace_;
  std::string expect_digest_;
  ScratchStore store_;
  std::vector<std::string> failures_;
  // Every later pass is compared with the first cold pass.
  std::vector<sim::ScenarioResult> reference_rows_;
  std::string reference_report_;
  std::string reference_digest_;
  std::vector<opt::CoOptResult> coopt_last_;
};

/// Deterministic counters a traced pass records; equal on every pass.
struct TraceCounters {
  std::array<std::uint64_t, kLayerCount> calls{};
  std::uint64_t rows = 0, schedules = 0, cycle_runs = 0, cycle_flits = 0,
                analytical_attempts = 0, analytical_accepted = 0,
                packed_flits = 0, order_values = 0, cache_lookups = 0,
                cache_hits = 0;
  friend bool operator==(const TraceCounters&, const TraceCounters&) = default;
};

TraceCounters trace_counters(const LayerTotals& t) {
  return {t.calls,        t.rows,          t.schedules,
          t.cycle_runs,   t.cycle_flits,   t.analytical_attempts,
          t.analytical_accepted, t.packed_flits, t.order_values,
          t.cache_lookups, t.cache_hits};
}

constexpr std::array<ordering::OrderingMode, 7> kOrderedModes{
    ordering::OrderingMode::kAffiliated, ordering::OrderingMode::kSeparated,
    ordering::OrderingMode::kChain,      ordering::OrderingMode::kHdChain,
    ordering::OrderingMode::kBucket,     ordering::OrderingMode::kHybrid,
    ordering::OrderingMode::kTwoFlit};

/// The per-layer metrics of one traced pass (wall-clock and the ratios
/// measured at the layer boundaries).
std::vector<Metric> layer_metrics(const TracedPass& p) {
  const LayerTotals& t = p.totals;
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m;
  double attributed = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string name = layer_name(static_cast<Layer>(i));
    const double share = ratio(d(t.ns[i]), d(p.capacity_ns));
    attributed += share;
    m.push_back({name + ".self_ms", ms(t.ns[i]), "ms"});
    m.push_back({name + ".share", share, "ratio"});
    m.push_back({name + ".calls", d(t.calls[i]), "count"});
  }
  const auto ns_of = [&](Layer l) { return t.ns[static_cast<std::size_t>(l)]; };
  m.push_back({"sim.materialize.schedules_per_row",
               ratio(d(t.schedules), d(t.rows)), "ratio"});
  m.push_back({"ordering.order.mvalues_per_s",
               ratio(d(t.order_values) * 1e3, d(ns_of(Layer::kOrder))),
               "Mvalues/s"});
  for (const ordering::OrderingMode mode : kOrderedModes)
    m.push_back({"ordering.order." + ordering::short_mode_name(mode) +
                     ".self_ms",
                 ms(t.order_ns_by_mode[static_cast<std::size_t>(mode)]),
                 "ms"});
  m.push_back({"accel.pack.flits", d(t.packed_flits), "count"});
  m.push_back({"noc.analytical.accept_ratio",
               ratio(d(t.analytical_accepted), d(t.analytical_attempts)),
               "ratio"});
  m.push_back({"noc.analytical.rejected_ms", ms(t.analytical_rejected_ns),
               "ms"});
  m.push_back({"noc.cycle.runs_per_point", ratio(d(t.cycle_runs), d(t.schedules)),
               "ratio"});
  m.push_back({"noc.cycle.mflits_per_s",
               ratio(d(t.cycle_flits) * 1e3, d(ns_of(Layer::kCycle))),
               "Mflits/s"});
  m.push_back({"sim.cache.store_ms", ms(t.cache_store_ns), "ms"});
  m.push_back({"sim.cache.lookup_ms", ms(t.cache_lookup_ns), "ms"});
  m.push_back({"sim.cache.wait_ms", ms(t.cache_wait_ns), "ms"});
  m.push_back({"trace.unattributed_share", 1.0 - attributed, "ratio"});
  return m;
}

/// Element-wise median of equally-shaped metric lists.
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& run : runs) v.push_back(run[i].value);
    out[i].value = median(v);
  }
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string kernel_tier_override() {
  const char* env = std::getenv("NOCBT_KERNEL_TIER");
  return env ? env : "";
}

int run(const Args& args) {
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "nocbt_perfbench: refusing to time a build without "
                 "optimization and NDEBUG (build type '%s')\n",
                 NOCBT_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // Set-up: everything before the first timed call.
  Runner runner(make_workload(args.workload, args.seed, args.small), args);
  const std::string tier(ordering::active_kernel_backend().name());
  if (args.setup_only) return 0;

  const std::optional<Pass> cold = runner.prime();
  if (cold)
    std::fprintf(stderr, "%s cold pass: %zu rows in %.4f s\n",
                 args.workload.c_str(), cold->rows, cold->seconds);
  std::vector<Pass> passes;
  // The first pass of a process runs slower; in trace mode an untimed
  // warm-up pass (or the cold pass) keeps that out of the trace overhead.
  const std::size_t timed_from = args.trace && !cold ? 1 : 0;
  if (timed_from) {
    passes.push_back(runner.untraced());
    std::fprintf(stderr, "%s warm-up pass: %zu rows in %.4f s\n",
                 args.workload.c_str(), passes.back().rows,
                 passes.back().seconds);
  }
  const std::uint64_t start = now_ns();
  const std::size_t min_rounds = args.trace ? 2 : 3;
  std::vector<double> round_s;
  std::vector<TracedPass> traced;
  std::vector<std::vector<Metric>> traced_metrics;
  while (round_s.size() < min_rounds ||
         elapsed_s(start) + median(round_s) <= args.seconds) {
    const std::uint64_t round_start = now_ns();
    passes.push_back(runner.untraced());
    std::fprintf(stderr, "%s pass %zu: %zu rows in %.4f s", args.workload.c_str(),
                 passes.size() - timed_from, passes.back().rows,
                 passes.back().seconds);
    if (args.trace) {
      traced.push_back(runner.traced());
      traced_metrics.push_back(layer_metrics(traced.back()));
      std::fprintf(stderr, ", traced %.4f s",
                   static_cast<double>(traced.back().wall_ns) / 1e9);
    }
    std::fprintf(stderr, "\n");
    round_s.push_back(elapsed_s(round_start));
  }

  std::size_t attempted = cold ? cold->rows : 0;
  std::size_t failed = cold ? cold->failed : 0;
  std::vector<double> rows_per_s, pass_s, program_wall_ms;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    attempted += p.rows;
    failed += p.failed;
    if (i >= timed_from) {
      rows_per_s.push_back(ratio(static_cast<double>(p.rows), p.seconds));
      pass_s.push_back(p.seconds);
      program_wall_ms.push_back(p.program_wall_ms);
    }
    runner.check(p.digest == passes.front().digest,
                 "report digest changed between passes on one seed");
    runner.check(p.counters == passes.front().counters,
                 "deterministic counters changed between passes on one seed");
  }
  for (const TracedPass& t : traced) {
    attempted += t.totals.rows;
    runner.check(trace_counters(t.totals) ==
                     trace_counters(traced.front().totals),
                 "traced counters changed between passes on one seed");
  }
  const Counters& c = passes.front().counters;
  // service_rerun's passes replay rows whose wall-clock is not persisted;
  // its simulation time is the cold pass's.
  const double cold_s = cold ? cold->seconds : median(pass_s);
  const double cold_rows = cold ? static_cast<double>(cold->rows)
                                : static_cast<double>(passes.front().rows);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"rows_per_s", median(rows_per_s), "rows/s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  } else {
    metrics = median_metrics(traced_metrics);
    std::vector<double> traced_s;
    for (const TracedPass& t : traced)
      traced_s.push_back(static_cast<double>(t.wall_ns) / 1e9);
    // A traced service_rerun pass holds its cold pass and one rerun.
    const double untraced_s = median(pass_s) + (cold ? cold_s : 0.0);
    metrics.push_back({"trace.overhead_share",
                       ratio(median(traced_s) - untraced_s, untraced_s),
                       "ratio"});
    metrics.push_back({"sim.cold_rows_per_s", ratio(cold_rows, cold_s),
                       "rows/s"});
    metrics.push_back({"noc.program_wall_ms",
                       cold ? cold->program_wall_ms : median(program_wall_ms),
                       "ms"});
    runner.check(ratio(static_cast<double>(traced.front().totals.cache_hits),
                       static_cast<double>(
                           traced.front().result.rows.size())) ==
                     c.cache_hit_ratio,
                 "traced cache hits differ from the executor's");
  }
  // Deterministic counters: reported apart from wall-clock and, in trace
  // mode, also as per-layer metrics.
  std::vector<Metric> counters{
      {"noc.cycles_stepped", static_cast<double>(c.cycles_stepped), "count"},
      {"noc.components_stepped", static_cast<double>(c.components_stepped),
       "count"},
      {"noc.analytical_row_share", c.analytical_row_share, "ratio"},
      {"sim.cache.hit_ratio", c.cache_hit_ratio, "ratio"},
      {"opt.memo_hit_ratio", c.memo_hit_ratio, "ratio"}};
  if (args.trace) {
    metrics.insert(metrics.end(), counters.begin(), counters.end());
    for (const Metric& m : metrics)
      if (m.name == "noc.cycle.runs_per_point" ||
          m.name == "sim.materialize.schedules_per_row")
        counters.push_back(m);
  }

  const auto& failures = runner.failures();
  JsonWriter json;
  json.begin_object()
      .key("workload").value(args.workload)
      .key("seed").value(args.seed)
      .key("trace").value(args.trace)
      .key("small").value(args.small)
      .key("correct").value(failures.empty())
      .key("attempted").value(static_cast<std::uint64_t>(attempted))
      .key("failed").value(static_cast<std::uint64_t>(failed))
      .key("passes").value(static_cast<std::uint64_t>(pass_s.size()))
      .key("digest").value(passes.front().digest)
      .key("failures").begin_array();
  for (const std::string& f : failures) json.value(f);
  json.end_array().key("metrics").begin_object();
  for (const Metric& m : metrics)
    json.key(m.name).begin_object()
        .key("value").value(m.value)
        .key("unit").value(m.unit)
        .end_object();
  json.end_object().key("counters").begin_object();
  for (const Metric& m : counters) json.key(m.name).value(m.value);
  json.end_object()
      .key("stamp").begin_object()
      .key("kernel_tier").value(tier)
      .key("kernel_tier_override").value(kernel_tier_override())
      .key("compiler").value(NOCBT_PERFBENCH_COMPILER)
      .key("build_type").value(NOCBT_PERFBENCH_BUILD_TYPE)
      .end_object()
      .end_object();
  std::printf("%s\n", json.take().c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nocbt_perfbench: %s\n", e.what());
    return 2;
  }
}
