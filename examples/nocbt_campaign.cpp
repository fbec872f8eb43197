// nocbt_campaign: declarative scenario sweeps from the command line.
//
// Expands a parameter grid (generators x formats x modes x meshes x
// windows x replicates) into scenarios, runs them on a thread pool (one
// network per worker, deterministic per-scenario seeds), and reports an
// ASCII table plus optional CSV / JSON files.
//
//   $ ./nocbt_campaign generators=uniform,hotspot formats=float32,fixed8
//       modes=O0,O1,O2 meshes=4x4,8x8 windows=64 threads=4 json=report.json
//   (one command line; wrapped here for readability)
//
// `modes=` accepts every registered ordering strategy in addition to the
// paper's O0/O1/O2: `chain`, `hdchain`, `bucket`, `hybrid`, `twoflit`
// (each applied with affiliated pairing — see src/ordering/strategy.h and
// the README's "Ordering strategies" table).
//
// Every key can also come from a `config=FILE` key=value file (one pair
// per line, '#' comments); explicit command-line arguments win. Use
// `describe=1` to print the expanded scenario list without running it.
//
// Energy reporting (§V-C units): `energy_pj=` selects the pJ/transition
// point ("innovus" = 0.173, "banerjee" = 0.532, or a number) and
// `freq_mhz=` the link clock; every report then carries measured link
// energy (pJ) and average power (mW) per scenario. `heatmap=FILE` writes
// a per-link CSV (link id, kind, src->dst, flits, BT, energy) for
// hotspot analysis.
//
// Placement workloads (`generators=placement`): `model=` picks a zoo
// model (lenet | darknet | resnet | mobile | attention), `placement=` a
// placement policy (rowmajor | snake | nearmc), `tiles_per_layer=` the PE
// shards per layer. `trace_out=FILE` dumps the first scenario's
// pre-ordering injection schedule as a payload-carrying PacketTrace CSV;
// replaying it (`generators=replay trace=FILE`) on the same mesh, format
// and slots reproduces that scenario's BT/energy byte for byte.
//
// `engine=auto|active|fullscan|analytical` selects the simulation
// backend. "auto" (the default) evaluates each synthetic schedule with
// the zero-load analytical engine and keeps that result when it is proven
// exact (congestion-free), falling back to the active-set cycle engine
// otherwise; forcing "analytical" fails contended scenarios loudly, and
// the full-scan reference produces identical numbers to active, only
// slower — useful for differential runs. `profile=FILE` writes the
// step-loop profile CSV (actual engine run, wall-clock per variant,
// cycles stepped vs. idle-skipped, component steps run vs. skipped, skip
// ratio).
//
// Campaign service (see README "Campaign service"): `cache_dir=DIR` keeps
// a content-addressed store of completed scenario rows — a rerun (or a
// nocbt_optimize search over the same scenarios) replays hits instead of
// re-simulating. `resume=FILE` checkpoints every completed row to an
// append-only journal; rerunning the same command after a kill skips the
// journaled rows, and pointing resume= at a journal from a *different*
// spec fails loudly. `shard=i/N` runs the i-th of N deterministic
// expansion slices (give each shard its own resume= file);
// `merge=FILE1,FILE2,...` reassembles shard journals into the full
// reports — byte-identical to a serial run — without simulating anything.

#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/campaign_report.h"
#include "sim/campaign_config.h"
#include "sim/run_journal.h"
#include "sim/traffic_gen.h"

using namespace nocbt;

namespace {

/// get_int with a range gate, so a negative or absurd value fails with a
/// clear message instead of wrapping through an unsigned cast.
std::int64_t get_bounded(const Options& opts, const std::string& key,
                         std::int64_t fallback, std::int64_t lo,
                         std::int64_t hi) {
  const std::int64_t v = opts.get_int(key, fallback);
  if (v < lo || v > hi)
    throw std::invalid_argument("option '" + key + "' must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(v));
  return v;
}

/// This binary's runner-only keys — how the sweep is executed and reported.
/// The campaign-shaping keys live in sim::campaign_option_keys(), shared
/// with nocbt_optimize and the tests so every front-end interprets them
/// identically.
const std::set<std::string> kRunnerKeys{
    "config", "threads", "progress", "describe",  "csv",
    "json",   "heatmap", "profile",  "trace_out", "merge"};

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opts = Options::parse(argc, argv);
    if (opts.has("config")) {
      opts.merge_defaults(Options::parse_file(opts.get_string("config", "")));
    }
    std::set<std::string> extra = kRunnerKeys;
    extra.insert(sim::campaign_service_option_keys().begin(),
                 sim::campaign_service_option_keys().end());
    sim::check_campaign_keys(opts, extra);

    const sim::CampaignSpec camp = sim::campaign_from_options(opts);
    const auto scenarios = camp.expand();
    if (scenarios.empty())
      throw std::invalid_argument(
          "campaign expanded to 0 scenarios — check for an empty grid list "
          "(generators/formats/modes/meshes/windows) or replicates=0");
    std::printf("campaign '%s': %zu scenarios (root seed %llu)\n",
                camp.name.c_str(), scenarios.size(),
                static_cast<unsigned long long>(camp.root_seed));

    if (opts.get_bool("describe", false)) {
      for (const auto& s : scenarios)
        std::printf("  %-32s seed=%llu packets=%u rate=%.3f\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.seed),
                    s.packets, s.injection_rate);
      return 0;
    }

    sim::RunnerConfig runner;
    runner.threads =
        static_cast<unsigned>(get_bounded(opts, "threads", 4, 1, 1024));
    runner.exec = sim::execution_from_options(opts);
    if (opts.get_bool("progress", true)) {
      runner.on_result = [](const sim::ScenarioResult& row, std::size_t done,
                            std::size_t total) {
        std::printf("  [%zu/%zu] %-32s %s\n", done, total,
                    row.spec.name.c_str(),
                    row.error.empty() ? "ok" : row.error.c_str());
        std::fflush(stdout);
      };
    }

    // trace_out: dump the first scenario's pre-ordering injection schedule
    // as a payload-carrying PacketTrace CSV. Replaying it (generators=replay
    // trace=FILE on the same mesh/format/slots) reproduces that scenario's
    // per-link BT and energy byte for byte.
    const std::string trace_out = opts.get_string("trace_out", "");
    if (!trace_out.empty()) {
      const sim::ScenarioSpec& first = scenarios.front();
      if (first.generator == sim::GeneratorKind::kModel)
        throw std::invalid_argument(
            "trace_out records synthetic/placement schedules, not model "
            "workloads (model traffic is reactive)");
      sim::record_schedule(first).dump_csv(trace_out);
      std::printf("wrote injection-schedule trace of '%s' to %s\n",
                  first.name.c_str(), trace_out.c_str());
    }

    // merge=: reassemble shard journals into the full reports instead of
    // running anything — the reports are byte-identical to a serial run's.
    const std::string merge = opts.get_string("merge", "");
    const sim::CampaignResult result =
        merge.empty() ? sim::run_campaign(camp, runner)
                      : sim::merge_campaign(camp, split_csv_list(merge));
    for (const std::string& warning : result.stats.warnings)
      std::fprintf(stderr, "nocbt_campaign: warning: %s\n", warning.c_str());
    if (!merge.empty()) {
      std::printf("merged %zu journal(s): %zu rows recovered\n",
                  split_csv_list(merge).size(), result.rows.size());
    } else if (!runner.exec.cache_dir.empty() ||
               !runner.exec.journal_path.empty() ||
               runner.exec.shard.count > 1) {
      std::printf(
          "shard %s: %zu of %zu scenarios assigned — %zu simulated, %zu "
          "cache hits, %zu journal hits, %zu cycle runs\n",
          to_string(runner.exec.shard).c_str(), result.stats.assigned,
          result.stats.grid_total, result.stats.simulated,
          result.stats.cache_hits, result.stats.journal_hits,
          result.stats.cycle_runs);
    }
    std::fputs(sim::render_table(result).c_str(), stdout);

    const std::string csv_path = opts.get_string("csv", "");
    if (!csv_path.empty()) {
      sim::write_csv_report(csv_path, camp, result);
      std::printf("wrote CSV report to %s\n", csv_path.c_str());
    }
    const std::string json_path = opts.get_string("json", "");
    if (!json_path.empty()) {
      sim::write_json_report(json_path, camp, result);
      std::printf("wrote JSON report to %s\n", json_path.c_str());
    }
    const std::string heatmap_path = opts.get_string("heatmap", "");
    if (!heatmap_path.empty()) {
      const std::size_t rows =
          sim::write_link_heatmap_csv(heatmap_path, camp, result);
      std::printf("wrote per-link heatmap CSV to %s (%zu link rows)\n",
                  heatmap_path.c_str(), rows);
    }
    const std::string profile_path = opts.get_string("profile", "");
    if (!profile_path.empty()) {
      sim::write_profile_csv(profile_path, camp, result);
      std::printf("wrote step-loop profile CSV to %s\n", profile_path.c_str());
    }

    std::size_t failed = 0;
    for (const auto& row : result.rows)
      if (!row.error.empty()) ++failed;
    if (failed > 0) {
      std::printf("%zu of %zu scenarios failed\n", failed, result.rows.size());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nocbt_campaign: %s\n", e.what());
    return 2;
  }
}
