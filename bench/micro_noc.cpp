// Self-timed micro-benchmark for the NoC simulator's engines.
//
//   $ ./micro_noc --json BENCH_noc.json
//
// The machine-readable perf baseline for the simulation engine: it drives
// identical injection schedules through the active-set engine and the
// retained full-scan reference, verifies the two produce byte-identical
// results (BT, cycles, packets), self-times both step loops, and writes
// one JSON document (via common/json_writer) that CI uploads as an
// artifact and gates on: the active-set engine must be >= 2x
// the full scan on sparse 16x16 traffic, and the analytical zero-load
// backend must reproduce the active-set BT/packet totals exactly at
// >= 10x less wall-clock on the same sparse schedule (the congestion-free
// regime it exists for; cycle counts are excluded from that comparison
// because the step loop runs a fixed cycle budget past the drain point).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"
#include "noc/sim_profiler.h"

using namespace nocbt;
using namespace nocbt::noc;

namespace {

std::vector<BitVec> random_payloads(unsigned bits, int flits, Rng& rng) {
  std::vector<BitVec> out;
  for (int i = 0; i < flits; ++i) {
    BitVec v(bits);
    for (unsigned w = 0; w < bits; w += 64)
      v.set_field(w, std::min(64u, bits - w), rng.bits64());
    out.push_back(std::move(v));
  }
  return out;
}

/// Deterministic outcome + wall-clock of one scheduled run.
struct EngineRun {
  std::uint64_t bt = 0;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  double skip_ratio = 0.0;
  double seconds = 0.0;
};

/// Drive `sim_cycles` step() calls injecting one `flits`-flit packet every
/// `gap` cycles (uniform-random endpoints), then drain. The schedule is a
/// pure function of `seed`, so two engines given the same seed see
/// byte-identical traffic.
EngineRun run_schedule(SimEngine engine, std::int32_t dim,
                       std::uint64_t sim_cycles, std::uint64_t gap, int flits,
                       std::uint64_t seed) {
  NocConfig cfg;
  cfg.rows = dim;
  cfg.cols = dim;
  cfg.flit_payload_bits = 128;
  cfg.engine = engine;
  Network net(cfg);
  const std::int32_t n = cfg.node_count();
  for (std::int32_t node = 0; node < n; ++node)
    net.set_sink(node, [](Packet&&, std::uint64_t) {});

  Rng rng(seed);
  const WallTimer timer;
  for (std::uint64_t c = 0; c < sim_cycles; ++c) {
    if (c % gap == 0) {
      const auto src = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      auto dst = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      if (dst == src) dst = (dst + 1) % n;
      net.inject(src, dst, random_payloads(128, flits, rng));
    }
    net.step();
  }
  if (!net.run_until_idle(1'000'000)) {
    std::fprintf(stderr, "micro_noc: schedule failed to drain\n");
    std::exit(1);
  }

  EngineRun run;
  run.seconds = timer.seconds();
  run.bt = net.bt().total();
  run.cycles = net.cycle();
  run.packets = net.stats().packets_delivered;
  run.skip_ratio = net.stats().sim.skip_ratio();
  return run;
}

/// Repeat the schedule until ~150ms of wall-clock accumulates; returns the
/// last run's deterministic outcome with the averaged throughput and (via
/// `seconds`) the averaged wall-clock of one run.
EngineRun measure(SimEngine engine, std::int32_t dim, std::uint64_t sim_cycles,
                  std::uint64_t gap, int flits, std::uint64_t seed,
                  double* mcycles_per_s) {
  EngineRun last = run_schedule(engine, dim, sim_cycles, gap, flits, seed);
  double total_s = last.seconds;
  std::uint64_t total_cycles = last.cycles;
  std::uint64_t runs = 1;
  while (total_s < 0.15) {
    last = run_schedule(engine, dim, sim_cycles, gap, flits, seed);
    total_s += last.seconds;
    total_cycles += last.cycles;
    ++runs;
  }
  *mcycles_per_s = static_cast<double>(total_cycles) / total_s / 1e6;
  last.seconds = total_s / static_cast<double>(runs);
  return last;
}

/// Drive the same deterministic schedule through the analytical zero-load
/// backend: identical Rng draw order to run_schedule (src, dst, payloads
/// per injection), so both backends see byte-identical traffic. Exits the
/// process if the schedule turns out contended — the sparse scenario is
/// congestion-free by construction (drain <= hops + flits + 2 << gap), so
/// that would mean the schedule or the engine regressed.
EngineRun run_analytical_schedule(std::int32_t dim, std::uint64_t sim_cycles,
                                  std::uint64_t gap, int flits,
                                  std::uint64_t seed) {
  NocConfig cfg;
  cfg.rows = dim;
  cfg.cols = dim;
  cfg.flit_payload_bits = 128;
  cfg.engine = SimEngine::kAnalytical;
  const std::int32_t n = cfg.node_count();

  Rng rng(seed);
  const WallTimer timer;
  AnalyticalEngine engine(cfg);
  for (std::uint64_t c = 0; c < sim_cycles; ++c) {
    if (c % gap == 0) {
      const auto src = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      auto dst = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      if (dst == src) dst = (dst + 1) % n;
      engine.inject(c, src, dst, random_payloads(128, flits, rng));
    }
  }
  if (!engine.run()) {
    std::fprintf(stderr, "micro_noc: analytical backend found contention: %s\n",
                 engine.contention_detail().c_str());
    std::exit(1);
  }

  EngineRun run;
  run.seconds = timer.seconds();
  run.bt = engine.bt().total();
  run.cycles = engine.cycle();
  run.packets = engine.stats().packets_delivered;
  run.skip_ratio = engine.stats().sim.skip_ratio();
  return run;
}

/// measure() for the analytical backend: repeat until ~150ms accumulates
/// (one analytical pass is microseconds, so this averages thousands of
/// runs); `seconds` carries the averaged wall-clock of one run.
EngineRun measure_analytical(std::int32_t dim, std::uint64_t sim_cycles,
                             std::uint64_t gap, int flits,
                             std::uint64_t seed) {
  EngineRun last = run_analytical_schedule(dim, sim_cycles, gap, flits, seed);
  double total_s = last.seconds;
  std::uint64_t runs = 1;
  while (total_s < 0.15) {
    last = run_analytical_schedule(dim, sim_cycles, gap, flits, seed);
    total_s += last.seconds;
    ++runs;
  }
  last.seconds = total_s / static_cast<double>(runs);
  return last;
}

struct JsonScenario {
  const char* name;
  std::int32_t dim;
  std::uint64_t sim_cycles;
  std::uint64_t gap;
  int flits;
  bool analytical;  ///< also time the zero-load backend (needs a
                    ///< congestion-free schedule to be meaningful)
};

int run_json_bench(const std::string& path) {
  // The gated scenario is the sparse 16x16 mesh (one short packet every 64
  // cycles — the paper-scale sweep regime where almost every component is
  // quiescent, and where the analytical backend is provably exact); the
  // dense 4x4 row documents the engine's behavior when skipping cannot
  // help (and where gap=1 traffic contends, so no analytical row).
  const JsonScenario scenarios[] = {
      {"sparse_16x16", 16, 20'000, 64, 4, true},
      {"dense_4x4", 4, 20'000, 1, 4, false},
  };

  JsonWriter json;
  json.begin_object().key("bench").value("micro_noc");
  json.key("scenarios").begin_array();
  double sparse_speedup = 0.0;
  double analytical_speedup = 0.0;
  bool analytical_bt_match = false;
  for (const JsonScenario& sc : scenarios) {
    double full_mcps = 0.0;
    double active_mcps = 0.0;
    const EngineRun full = measure(SimEngine::kFullScan, sc.dim, sc.sim_cycles,
                                   sc.gap, sc.flits, 11, &full_mcps);
    const EngineRun active =
        measure(SimEngine::kActiveSet, sc.dim, sc.sim_cycles, sc.gap,
                sc.flits, 11, &active_mcps);
    // Correctness gate before reporting: both engines must agree exactly
    // (the differential test suite pins this too, but a perf baseline over
    // diverging engines would be meaningless).
    if (full.bt != active.bt || full.cycles != active.cycles ||
        full.packets != active.packets) {
      std::fprintf(stderr,
                   "micro_noc: engine mismatch on %s (bt %llu/%llu, cycles "
                   "%llu/%llu, packets %llu/%llu)\n",
                   sc.name, static_cast<unsigned long long>(full.bt),
                   static_cast<unsigned long long>(active.bt),
                   static_cast<unsigned long long>(full.cycles),
                   static_cast<unsigned long long>(active.cycles),
                   static_cast<unsigned long long>(full.packets),
                   static_cast<unsigned long long>(active.packets));
      return 1;
    }
    const double speedup = active_mcps / full_mcps;
    if (std::string(sc.name) == "sparse_16x16") sparse_speedup = speedup;
    json.begin_object()
        .key("name").value(sc.name)
        .key("rows").value(static_cast<std::int64_t>(sc.dim))
        .key("cols").value(static_cast<std::int64_t>(sc.dim))
        .key("inject_gap_cycles").value(sc.gap)
        .key("flits_per_packet").value(static_cast<std::int64_t>(sc.flits))
        .key("cycles").value(active.cycles)
        .key("packets").value(active.packets)
        .key("bt").value(active.bt)
        .key("skip_ratio").value(active.skip_ratio)
        .key("fullscan_mcycles_per_s").value(full_mcps)
        .key("active_mcycles_per_s").value(active_mcps)
        .key("speedup").value(speedup);
    if (sc.analytical) {
      const EngineRun ana = measure_analytical(sc.dim, sc.sim_cycles, sc.gap,
                                               sc.flits, 11);
      // Equivalence gate: the analytical backend must reproduce the active
      // run's BT and packet totals exactly. Cycle counts are *expected* to
      // differ (the step loop burns the full sim_cycles budget; the
      // analytical drain cycle stops at the last delivery), so they stay
      // out of this comparison.
      const bool match = ana.bt == active.bt && ana.packets == active.packets;
      if (!match) {
        std::fprintf(stderr,
                     "micro_noc: analytical mismatch on %s (bt %llu/%llu, "
                     "packets %llu/%llu)\n",
                     sc.name, static_cast<unsigned long long>(ana.bt),
                     static_cast<unsigned long long>(active.bt),
                     static_cast<unsigned long long>(ana.packets),
                     static_cast<unsigned long long>(active.packets));
        return 1;
      }
      // Both .seconds are repeat-averaged wall-clock for one full schedule
      // (inject + evaluate), so the ratio is an end-to-end speedup.
      const double ana_speedup = active.seconds / ana.seconds;
      if (std::string(sc.name) == "sparse_16x16") {
        analytical_speedup = ana_speedup;
        analytical_bt_match = match;
      }
      json.key("active_seconds_per_run").value(active.seconds)
          .key("analytical_seconds_per_run").value(ana.seconds)
          .key("analytical_drain_cycle").value(ana.cycles)
          .key("analytical_bt_match").value(match)
          .key("analytical_speedup").value(ana_speedup);
    }
    json.end_object();
  }
  json.end_array();
  // The CI gates: active-set step-loop throughput vs. the full scan, and
  // the analytical backend's exact-equivalence + wall-clock advantage over
  // the active set, both on the sparse 16x16 scenario.
  json.key("active_speedup").value(sparse_speedup);
  json.key("analytical_speedup").value(analytical_speedup);
  json.key("analytical_bt_match").value(analytical_bt_match);
  json.end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "micro_noc: cannot open %s\n", path.c_str());
    return 1;
  }
  out << json.take() << '\n';
  if (!out) {
    std::fprintf(stderr, "micro_noc: write failed for %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "wrote %s (sparse 16x16: active-set %.2fx vs full scan, analytical "
      "%.0fx vs active-set)\n",
      path.c_str(), sparse_speedup, analytical_speedup);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!benchutil::parse_flags(argc, argv, "micro_noc",
                              {{"--json", &json_path}}))
    return 2;
  if (json_path.empty()) {
    std::fprintf(stderr, "usage: micro_noc --json FILE\n");
    return 2;
  }
  return run_json_bench(json_path);
}
