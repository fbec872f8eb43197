// Differential suite for the two simulation engines: the active-set
// engine must be byte-identical to the retained naive full-scan
// reference — same cycle counts, same idle() answers every cycle, same BT
// totals and per-link counters, same delivery order, same transport stats
// — across mesh shapes, traffic patterns, channel latencies and
// advance_idle interleavings. The engines share the component models, so
// any divergence here is a due-mask/wakeup bug.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "noc/network.h"

namespace nocbt::noc {
namespace {

std::vector<BitVec> make_payloads(unsigned bits, int flits,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVec> out;
  for (int i = 0; i < flits; ++i) {
    BitVec v(bits);
    for (unsigned w = 0; w < bits; w += 64)
      v.set_field(w, bits - w >= 64 ? 64 : bits - w, rng.bits64());
    out.push_back(std::move(v));
  }
  return out;
}

/// (cycle, packet id) per delivery, in callback order — the strictest
/// observable ordering the network exposes.
using DeliveryLog = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// A scripted injection: at `cycle`, src -> dst with `flits` flits.
struct ScriptEntry {
  std::uint64_t cycle;
  std::int32_t src;
  std::int32_t dst;
  int flits;
};

/// Paired networks driven in lockstep: every mutation is applied to both,
/// and observable state is asserted equal after every step.
class EnginePair {
 public:
  explicit EnginePair(NocConfig cfg) : cfg_(cfg) {
    cfg_.engine = SimEngine::kActiveSet;
    active_ = std::make_unique<Network>(cfg_);
    cfg_.engine = SimEngine::kFullScan;
    full_ = std::make_unique<Network>(cfg_);
    for (std::int32_t node = 0; node < cfg_.node_count(); ++node) {
      active_->set_sink(node, [this](Packet&& p, std::uint64_t cycle) {
        active_log_.emplace_back(cycle, p.id);
      });
      full_->set_sink(node, [this](Packet&& p, std::uint64_t cycle) {
        full_log_.emplace_back(cycle, p.id);
      });
    }
  }

  void inject(std::int32_t src, std::int32_t dst, int flits,
              std::uint64_t seed) {
    const auto a = active_->inject(src, dst,
                                   make_payloads(cfg_.flit_payload_bits,
                                                 flits, seed));
    const auto f = full_->inject(src, dst,
                                 make_payloads(cfg_.flit_payload_bits, flits,
                                               seed));
    ASSERT_EQ(a, f) << "packet id diverged";
  }

  void step_and_check() {
    active_->step();
    full_->step();
    check();
  }

  void check() {
    ASSERT_EQ(active_->cycle(), full_->cycle());
    ASSERT_EQ(active_->idle(), full_->idle())
        << "idle() diverged at cycle " << active_->cycle();
    ASSERT_EQ(active_->buffered_flits(), full_->buffered_flits())
        << "buffered flits diverged at cycle " << active_->cycle();
    ASSERT_EQ(active_log_, full_log_)
        << "delivery order diverged by cycle " << active_->cycle();
  }

  /// Drive both to idle in lockstep, checking every cycle.
  void drain(std::uint64_t max_cycles) {
    for (std::uint64_t i = 0; i < max_cycles && !active_->idle(); ++i)
      step_and_check();
    ASSERT_TRUE(active_->idle()) << "active engine did not drain";
    ASSERT_TRUE(full_->idle()) << "full-scan engine did not drain";
  }

  void advance_idle(std::uint64_t cycles) {
    active_->advance_idle(cycles);
    full_->advance_idle(cycles);
  }

  void final_check() {
    check();
    // Per-link counters byte-identical.
    ASSERT_EQ(active_->bt().snapshot(), full_->bt().snapshot());
    EXPECT_EQ(active_->bt().total(), full_->bt().total());
    EXPECT_EQ(active_->bt().total_all_links(), full_->bt().total_all_links());
    // Transport statistics, including the float accumulators whose value
    // depends on per-cycle delivery order.
    const NocStats& a = active_->stats();
    const NocStats& f = full_->stats();
    EXPECT_EQ(a.packets_injected, f.packets_injected);
    EXPECT_EQ(a.packets_delivered, f.packets_delivered);
    EXPECT_EQ(a.flits_injected, f.flits_injected);
    EXPECT_EQ(a.flits_delivered, f.flits_delivered);
    EXPECT_EQ(a.cycles, f.cycles);
    EXPECT_EQ(a.packet_latency.mean(), f.packet_latency.mean());
    EXPECT_EQ(a.packet_latency.stddev(), f.packet_latency.stddev());
    EXPECT_EQ(a.packet_hops.mean(), f.packet_hops.mean());
    // Engine bookkeeping: same cycles stepped; the active engine skipped
    // work, the full scan by definition skipped none.
    EXPECT_EQ(a.sim.cycles_stepped, f.sim.cycles_stepped);
    EXPECT_EQ(a.sim.idle_cycles_skipped, f.sim.idle_cycles_skipped);
    EXPECT_EQ(f.sim.components_skipped, 0u);
    EXPECT_LE(a.sim.components_stepped, f.sim.components_stepped);
  }

  Network& active() { return *active_; }

 private:
  NocConfig cfg_;
  std::unique_ptr<Network> active_;
  std::unique_ptr<Network> full_;
  DeliveryLog active_log_;
  DeliveryLog full_log_;
};

NocConfig config_for(std::int32_t rows, std::int32_t cols) {
  NocConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.flit_payload_bits = 64;
  return cfg;
}

/// Seed-derived random burst script over `rounds` rounds of `per_round`
/// packets with idle gaps between rounds.
std::vector<ScriptEntry> random_script(std::int32_t nodes, int rounds,
                                       int per_round, std::uint64_t gap,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ScriptEntry> script;
  std::uint64_t cycle = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < per_round; ++p) {
      const auto src = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
      auto dst = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
      script.push_back({cycle, src, dst,
                        static_cast<int>(rng.uniform_int(1, 6))});
    }
    cycle += gap;
  }
  return script;
}

/// Run a script on paired engines: inject when due (advancing idle gaps via
/// advance_idle when both engines are idle, exercising the clock-jump
/// path), stepping and checking every cycle.
void run_script(EnginePair& pair, const std::vector<ScriptEntry>& script,
                bool use_advance_idle) {
  std::size_t next = 0;
  std::uint64_t guard = 0;
  while (next < script.size() || !pair.active().idle()) {
    ASSERT_LT(++guard, 2'000'000u) << "script did not drain";
    if (next < script.size() &&
        script[next].cycle > pair.active().cycle() && pair.active().idle()) {
      const std::uint64_t jump = script[next].cycle - pair.active().cycle();
      if (use_advance_idle) {
        pair.advance_idle(jump);
      } else {
        for (std::uint64_t i = 0; i < jump; ++i) pair.step_and_check();
      }
    }
    while (next < script.size() &&
           script[next].cycle <= pair.active().cycle()) {
      const ScriptEntry& e = script[next];
      pair.inject(e.src, e.dst, e.flits, 1000 + next);
      ++next;
    }
    pair.step_and_check();
  }
  pair.final_check();
}

class EngineDifferential
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t>> {
};

TEST_P(EngineDifferential, RandomBurstsMatchFullScan) {
  const auto [rows, cols] = GetParam();
  EnginePair pair(config_for(rows, cols));
  const auto script =
      random_script(rows * cols, 6, 2 * rows, 17, 7 * rows + cols);
  run_script(pair, script, /*use_advance_idle=*/false);
}

TEST_P(EngineDifferential, AdvanceIdleInterleavingsMatchFullScan) {
  // Long idle gaps between bursts, jumped via advance_idle: the clock
  // lands mid-wheel-period, which is exactly where a stale-wake bug in the
  // active-set engine would surface.
  const auto [rows, cols] = GetParam();
  EnginePair pair(config_for(rows, cols));
  const auto script =
      random_script(rows * cols, 5, rows, 997, 31 * rows + cols);
  run_script(pair, script, /*use_advance_idle=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    MeshShapes, EngineDifferential,
    ::testing::Values(std::make_tuple(1, 4), std::make_tuple(3, 5),
                      std::make_tuple(4, 4), std::make_tuple(8, 8)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param));
    });

TEST(EngineDifferential, MultiCycleChannelLatency) {
  // channel_latency > 1 exercises the timing wheel's deeper slots: a wake
  // scheduled 3 cycles out must not be dropped or delivered early.
  NocConfig cfg = config_for(4, 4);
  cfg.channel_latency = 3;
  EnginePair pair(cfg);
  const auto script = random_script(16, 5, 6, 29, 99);
  run_script(pair, script, /*use_advance_idle=*/true);
}

TEST(EngineDifferential, SelfTrafficAndHotspot) {
  // Self-delivered packets (NI -> local port -> NI) plus a many-to-one
  // hotspot that saturates one ejection link and backpressures.
  EnginePair pair(config_for(4, 4));
  std::vector<ScriptEntry> script;
  for (int r = 0; r < 4; ++r) {
    for (std::int32_t src = 0; src < 16; ++src)
      script.push_back({static_cast<std::uint64_t>(r) * 3, src, 5, 3});
    script.push_back({static_cast<std::uint64_t>(r) * 3, 5, 5, 2});
  }
  run_script(pair, script, /*use_advance_idle=*/false);
}

TEST(EngineDifferential, SingleVcBackpressure) {
  NocConfig cfg = config_for(4, 4);
  cfg.num_vcs = 1;
  cfg.vc_buffer_depth = 2;
  EnginePair pair(cfg);
  const auto script = random_script(16, 8, 12, 5, 1234);
  run_script(pair, script, /*use_advance_idle=*/false);
}

TEST(ActiveSetEngine, WorklistDrainsToZeroAndProfilerCounts) {
  NocConfig cfg = config_for(8, 8);
  Network net(cfg);  // active-set by default
  net.set_sink(63, [](Packet&&, std::uint64_t) {});
  EXPECT_EQ(net.active_components(), 0u);
  EXPECT_TRUE(net.idle());

  net.inject(0, 63, make_payloads(64, 4, 5));
  EXPECT_GT(net.active_components(), 0u);
  EXPECT_FALSE(net.idle());
  ASSERT_TRUE(net.run_until_idle(10'000));
  EXPECT_EQ(net.active_components(), 0u);

  const SimProfile& sim = net.stats().sim;
  EXPECT_EQ(sim.cycles_stepped, net.cycle());
  EXPECT_GT(sim.components_stepped, 0u);
  // A lone packet crossing an 8x8 mesh leaves ~126 of 128 components
  // quiescent each cycle; the whole point of the engine.
  EXPECT_GT(sim.components_skipped, sim.components_stepped);
  EXPECT_GT(sim.skip_ratio(), 0.5);

  // advance_idle is accounted as skipped cycles, not stepped ones.
  const std::uint64_t stepped_before = sim.cycles_stepped;
  net.advance_idle(1000);
  EXPECT_EQ(net.stats().sim.cycles_stepped, stepped_before);
  EXPECT_EQ(net.stats().sim.idle_cycles_skipped, 1000u);
}

TEST(ActiveSetEngine, MidStepSinkInjectionMatchesFullScan) {
  // A sink that immediately injects a response (the accelerator platform's
  // PE -> MC result path) from inside the delivery callback: the injection
  // happens mid-step, from the NI being stepped, to destinations before
  // and after it.
  const auto run = [](SimEngine engine) {
    NocConfig cfg = config_for(4, 4);
    cfg.engine = engine;
    Network net(cfg);
    DeliveryLog log;
    for (std::int32_t node = 0; node < 16; ++node)
      net.set_sink(node, [&, node](Packet&& p, std::uint64_t cycle) {
        log.emplace_back(cycle, p.id);
        // Bounce once: reply to the source (both directions: to an NI id
        // lower and higher than the delivering one).
        if (p.payloads.size() > 1)
          net.inject(node, p.src, make_payloads(64, 1, 77));
      });
    net.inject(2, 13, make_payloads(64, 3, 1));   // reply 13 -> 2 (lower)
    net.inject(14, 3, make_payloads(64, 3, 2));   // reply 3 -> 14 (higher)
    EXPECT_TRUE(net.run_until_idle(10'000));
    return std::make_pair(log, net.cycle());
  };
  const auto [active_log, active_cycles] = run(SimEngine::kActiveSet);
  const auto [full_log, full_cycles] = run(SimEngine::kFullScan);
  EXPECT_EQ(active_log, full_log);
  EXPECT_EQ(active_cycles, full_cycles);
  ASSERT_EQ(active_log.size(), 4u);  // 2 requests + 2 bounced replies
}

TEST(ActiveSetEngine, MidStepInjectionFromAnotherNiMatchesFullScan) {
  // A sink that injects from another node's NI: one the scan has not
  // reached yet must step this cycle, and one it has passed next cycle,
  // exactly when the full scan would see the packet. The 9x8 mesh has 72
  // NIs, so the due mask spans two words and some sources sit in the word
  // after the delivering NI's (and some in the word before).
  const auto run = [](SimEngine engine) {
    NocConfig cfg = config_for(9, 8);
    cfg.engine = engine;
    Network net(cfg);
    const std::int32_t nodes = cfg.node_count();
    DeliveryLog log;
    for (std::int32_t node = 0; node < nodes; ++node)
      net.set_sink(node, [&, node](Packet&& p, std::uint64_t cycle) {
        log.emplace_back(cycle, p.id);
        // Forward once, from the mirror node's NI back to this node.
        if (p.payloads.size() > 1)
          net.inject(nodes - 1 - node, node, make_payloads(64, 1, p.id));
      });
    // Deliveries at 2 and 20 forward from later NIs (69 in the next word,
    // 51 in the same one); at 60 and 70, from earlier NIs (11 and 1).
    net.inject(40, 2, make_payloads(64, 3, 1));
    net.inject(33, 20, make_payloads(64, 2, 2));
    net.inject(5, 60, make_payloads(64, 4, 3));
    net.inject(65, 70, make_payloads(64, 2, 4));
    EXPECT_TRUE(net.run_until_idle(10'000));
    return std::make_pair(log, net.cycle());
  };
  const auto [active_log, active_cycles] = run(SimEngine::kActiveSet);
  const auto [full_log, full_cycles] = run(SimEngine::kFullScan);
  EXPECT_EQ(active_log, full_log);
  EXPECT_EQ(active_cycles, full_cycles);
  ASSERT_EQ(active_log.size(), 8u);  // 4 requests + 4 forwarded packets
}

}  // namespace
}  // namespace nocbt::noc
