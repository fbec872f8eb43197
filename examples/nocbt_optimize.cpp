// nocbt_optimize: search-driven placement x ordering co-optimization from
// the command line.
//
// Picks the joint configuration {placement policy, ordering strategy,
// per-packet window, payload codec} that minimizes *measured* average link
// power for one zoo model on one mesh. Scoring goes through the campaign
// engine (engine=auto by default), so every number the search ranks by is
// the number a full sweep would report for the same configuration.
//
//   $ ./nocbt_optimize model=resnet meshes=8x8mc4 tiles_per_layer=8
//       optimizer=anneal evals=40 opt_seed=1 spec_out=best.conf
//       json=best.json report_out=search.txt
//   (one command line; wrapped here for readability)
//
// Search knobs:
//   optimizer=   anneal | greedy-coordinate | random (any registered name)
//   evals=       search-phase step budget (default 40)
//   opt_seed=    search randomness; independent of the campaign seed= so
//                the measured physics and the search walk decouple
//   sa_temp=     initial annealing temperature in mW (0 = auto: 2% of the
//                baseline incumbent's power)
//   sa_cool=     geometric cooling factor per step (default 0.95)
//   placements=  placement-policy axis (default: every registered policy)
//
// The measurement template comes from the same campaign keys nocbt_campaign
// reads (model=, meshes=, tiles_per_layer=, windows=, formats=, modes=,
// seed=, packets=, energy_pj=, engine=, ...): modes/windows/formats give
// the search axes, everything else is shared by all candidates. The
// generator is placement (forced; pass generators=placement or nothing),
// the mesh list must hold exactly one mesh, replicates must stay 1.
//
// The search first sweeps every mode at the baseline coordinates (first
// placement/window/format) — the classic single-mode sweep — and is
// guaranteed to end no worse than that sweep's best row.
//
// Outputs:
//   spec_out=    the winning configuration as a campaign spec file;
//                `nocbt_campaign config=FILE json=...` re-runs it and
//                reproduces the winner's measurements byte for byte
//   json=        the winner's single-row campaign JSON report (identical
//                bytes to re-running the emitted spec with json=)
//   report_out=  deterministic search report (baseline, trajectory, winner)
//
// Campaign service (see README "Campaign service"): `cache_dir=DIR` scores
// through the same content-addressed store nocbt_campaign uses — a
// candidate whose scenario was already measured (by an earlier search, a
// killed one, or a campaign sweep) is served from the cache instead of
// re-simulating. `resume=FILE` checkpoints every simulated evaluation to a
// journal and preloads it on the next run; a journal written under a
// different template or placement axis is refused. `shard=i/N` switches to
// cache-warming mode: evaluate the i-th deterministic slice of the
// enumerated candidate space into cache_dir/resume and exit without
// searching — run all N shards (concurrently, same cache_dir), then run
// the search itself with that warm cache and zero re-simulations.

#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/hash.h"
#include "opt/coopt.h"
#include "ordering/ordering.h"
#include "place/policy.h"
#include "sim/campaign_config.h"
#include "sim/campaign_report.h"
#include "sim/run_journal.h"
#include "sim/scenario_cache.h"

using namespace nocbt;

namespace {

const std::set<std::string> kOptimizerKeys{
    "config",  "optimizer", "evals",      "opt_seed", "sa_temp",
    "sa_cool", "placements", "spec_out",  "json",     "report_out",
    "progress"};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
  if (!out) throw std::runtime_error("write failed for " + path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opts = Options::parse(argc, argv);
    if (opts.has("config")) {
      opts.merge_defaults(Options::parse_file(opts.get_string("config", "")));
    }
    std::set<std::string> extra = kOptimizerKeys;
    extra.insert(sim::campaign_service_option_keys().begin(),
                 sim::campaign_service_option_keys().end());
    sim::check_campaign_keys(opts, extra);

    sim::CampaignSpec base = sim::campaign_from_options(opts);
    if (opts.has("generators")) {
      if (base.generators.size() != 1 ||
          base.generators.front() != sim::GeneratorKind::kPlacement)
        throw std::invalid_argument(
            "nocbt_optimize searches placement workloads only "
            "(generators=placement)");
    } else {
      base.generators = {sim::GeneratorKind::kPlacement};
    }
    // Whole ordering-strategy axis by default; an explicit modes= narrows it.
    if (!opts.has("modes")) base.modes = ordering::all_ordering_modes();

    // Axis order matters: the first placement (and window/format) anchors
    // the baseline sweep the guard compares against.
    std::vector<std::string> placements = place::registered_policy_names();
    if (opts.has("placements"))
      placements = split_csv_list(opts.get_string("placements", ""));
    const opt::SearchSpace space =
        opt::SearchSpace::from_campaign(base, placements);

    opt::CoOptConfig config;
    config.optimizer = opts.get_string("optimizer", "anneal");
    config.seed = static_cast<std::uint64_t>(opts.get_int("opt_seed", 1));
    config.max_evals = static_cast<std::uint32_t>(
        opts.get_bounded("evals", 40, 0, 1'000'000));
    config.sa_temp = opts.get_double("sa_temp", 0.0);
    config.sa_cooling = opts.get_double("sa_cool", 0.95);

    std::printf(
        "co-optimizing %s on %s: %zu-point space "
        "(%zu placements x %zu modes x %zu windows x %zu formats), "
        "optimizer=%s evals=%u opt_seed=%llu\n",
        base.base.model.c_str(), sim::to_string(base.meshes.front()).c_str(),
        space.size(), space.placements.size(), space.modes.size(),
        space.windows.size(), space.formats.size(), config.optimizer.c_str(),
        config.max_evals, static_cast<unsigned long long>(config.seed));

    // Campaign service: a shared content-addressed cache (memory-only when
    // cache_dir= is absent) plus an optional evaluation journal.
    const sim::ExecutionConfig exec = sim::execution_from_options(opts);
    auto cache = std::make_shared<sim::ScenarioCache>(exec.cache_dir);
    opt::Evaluator eval(base, cache);

    std::unique_ptr<sim::RunJournal> journal;
    if (!exec.journal_path.empty()) {
      // The journal's identity domain: the full measurement template (the
      // emitted spec text covers every knob) plus the placement axis.
      StableHash id;
      id.add("nocbt-coopt-v1");
      id.add(sim::campaign_config_text(base));
      for (const std::string& p : space.placements) id.add(p);
      const std::string search_hash = id.hex();
      sim::JournalContents prior = sim::read_journal(exec.journal_path);
      bool fresh = true;
      if (prior.exists && prior.header_ok) {
        if (prior.campaign_hash != search_hash)
          throw std::runtime_error(
              "journal '" + exec.journal_path + "' was written for search " +
              prior.campaign_hash + " but this template/placement axis "
              "hashes to " + search_hash +
              " — refusing to mix evaluations across differing searches "
              "(point resume= at a fresh file or rerun the original "
              "configuration)");
        for (const auto& [hash, row] : prior.rows)
          cache->insert_memory(hash, row);
        fresh = false;
      }
      for (const std::string& w : prior.warnings)
        std::fprintf(stderr, "nocbt_optimize: warning: %s\n", w.c_str());
      journal = std::make_unique<sim::RunJournal>(
          exec.journal_path, search_hash,
          static_cast<std::uint64_t>(space.size()), fresh);
    }
    std::uint64_t appended = 0;
    eval.on_measure = [&](const opt::Candidate&, const std::string& hash,
                          const sim::ScenarioResult& row) {
      if (journal) journal->append(hash, appended++, row);
    };

    // shard=i/N: cache-warming mode — evaluate this shard's deterministic
    // slice of the enumerated space (placement-major, format-minor order)
    // and exit without searching.
    if (exec.shard.count > 1) {
      if (exec.cache_dir.empty() && exec.journal_path.empty())
        throw std::invalid_argument(
            "shard= warms the shared cache, so it needs cache_dir=DIR "
            "and/or resume=FILE to persist its evaluations");
      std::size_t index = 0;
      std::size_t evaluated = 0;
      for (const std::string& placement : space.placements)
        for (const ordering::OrderingMode mode : space.modes)
          for (const std::uint32_t window : space.windows)
            for (const DataFormat format : space.formats) {
              if (index++ % exec.shard.count != exec.shard.index) continue;
              const opt::Candidate c{placement, mode, window, format};
              (void)eval.evaluate(c);
              ++evaluated;
            }
      std::printf(
          "shard %s: evaluated %zu of %zu candidates (%zu simulated, %zu "
          "shared-cache hits)\n",
          sim::to_string(exec.shard).c_str(), evaluated, space.size(),
          eval.runs(), eval.shared_hits());
      for (const std::string& w : cache->take_diagnostics())
        std::fprintf(stderr, "nocbt_optimize: warning: %s\n", w.c_str());
      return 0;
    }

    const opt::CoOptResult result = opt::run_coopt(eval, space, config);
    if (!exec.cache_dir.empty() || !exec.journal_path.empty())
      std::printf("campaign service: %zu simulated, %zu shared-cache hits\n",
                  eval.runs(), eval.shared_hits());
    for (const std::string& w : cache->take_diagnostics())
      std::fprintf(stderr, "nocbt_optimize: warning: %s\n", w.c_str());

    if (opts.get_bool("progress", true))
      std::fputs(opt::coopt_report(result).c_str(), stdout);
    else
      std::printf("baseline %s power_mw=%.6f\nbest     %s power_mw=%.6f\n",
                  opt::to_string(result.baseline).c_str(),
                  result.baseline_power_mw,
                  opt::to_string(result.best).c_str(), result.best_power_mw);

    const std::string spec_out = opts.get_string("spec_out", "");
    if (!spec_out.empty()) {
      sim::write_campaign_config(spec_out, result.winning);
      std::printf("wrote winning campaign spec to %s\n", spec_out.c_str());
    }
    const std::string json_path = opts.get_string("json", "");
    if (!json_path.empty()) {
      sim::CampaignResult rows;
      rows.rows.push_back(result.best_result);
      sim::write_json_report(json_path, result.winning, rows);
      std::printf("wrote winner JSON report to %s\n", json_path.c_str());
    }
    const std::string report_out = opts.get_string("report_out", "");
    if (!report_out.empty()) {
      write_text(report_out, opt::coopt_report(result));
      std::printf("wrote search report to %s\n", report_out.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nocbt_optimize: %s\n", e.what());
    return 2;
  }
}
