// AnalyticalEngine vs the cycle engines, at the NoC-library level.
//
// The analytical backend claims bit-exactness on congestion-free
// schedules: the same link table, per-link flit/BT counters, drain cycle,
// delivery counts and latency/hops accumulators as a Network stepped
// through the identical schedule. These suites drive both through shared
// deterministic schedules (replicating the campaign runner's
// inject/advance_idle loop on the Network side) and compare everything,
// across mesh shapes, routing algorithms, channel latencies, packet
// lengths and self-traffic. They also pin the negative paths: contention
// detection, unsupported configs, and the inject() validation mirroring.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"

namespace nocbt::noc {
namespace {

struct ScheduledPacket {
  std::uint64_t cycle = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::vector<BitVec> payloads;
};

/// Deterministic pseudo-random payloads so BT totals are nontrivial.
std::vector<BitVec> make_payloads(unsigned bits, std::size_t flits,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVec> out;
  out.reserve(flits);
  for (std::size_t f = 0; f < flits; ++f) {
    BitVec v(bits);
    for (unsigned b = 0; b < bits; ++b)
      if (rng.uniform_int(0, 1)) v.set_bit(b, true);
    out.push_back(std::move(v));
  }
  return out;
}

/// Run `schedule` (sorted by cycle) through a cycle-engine Network with
/// the campaign runner's loop shape: advance_idle over gaps, inject at the
/// request cycle, step until drained.
void run_network(Network& net, const std::vector<ScheduledPacket>& schedule) {
  std::size_t next = 0;
  while (next < schedule.size() || !net.idle()) {
    if (next < schedule.size() && schedule[next].cycle > net.cycle() &&
        net.idle())
      net.advance_idle(schedule[next].cycle - net.cycle());
    while (next < schedule.size() && schedule[next].cycle <= net.cycle()) {
      net.inject(schedule[next].src, schedule[next].dst,
                 schedule[next].payloads);
      ++next;
    }
    net.step();
    ASSERT_LT(net.cycle(), 100'000u) << "cycle engine failed to drain";
  }
}

void expect_same_results(const AnalyticalEngine& ana, const Network& net) {
  // The analytical BT is the wire-order replay; Network charged every flit
  // as it crossed. Every link class is compared, injection included.
  const BtRecorder bt = ana.bt();
  // Same link ids and info, and per link the same flits and BT.
  EXPECT_EQ(bt.snapshot(), net.bt().snapshot());
  EXPECT_EQ(bt.total(), net.bt().total());
  EXPECT_EQ(bt.total_all_links(), net.bt().total_all_links());
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(bt.by_kind(static_cast<LinkKind>(k)),
              net.bt().by_kind(static_cast<LinkKind>(k)));
  EXPECT_EQ(ana.cycle(), net.cycle());
  EXPECT_EQ(ana.stats().cycles, net.stats().cycles);
  EXPECT_EQ(ana.stats().packets_injected, net.stats().packets_injected);
  EXPECT_EQ(ana.stats().packets_delivered, net.stats().packets_delivered);
  EXPECT_EQ(ana.stats().flits_injected, net.stats().flits_injected);
  EXPECT_EQ(ana.stats().flits_delivered, net.stats().flits_delivered);
  // Welford accumulators: identical add order means identical doubles.
  EXPECT_EQ(ana.stats().packet_latency.mean(),
            net.stats().packet_latency.mean());
  EXPECT_EQ(ana.stats().packet_latency.count(),
            net.stats().packet_latency.count());
  EXPECT_EQ(ana.stats().packet_hops.mean(), net.stats().packet_hops.mean());
  EXPECT_EQ(ana.stats().sim.engine, SimEngine::kAnalytical);
}

/// Feed the same schedule through both backends and compare everything.
/// Returns the analytical congestion-free verdict (callers assert it).
bool run_differential(const NocConfig& cfg,
                      const std::vector<ScheduledPacket>& schedule) {
  AnalyticalEngine ana(cfg);
  for (const ScheduledPacket& p : schedule)
    ana.inject(p.cycle, p.src, p.dst, p.payloads);
  const bool free = ana.run();

  NocConfig cycle_cfg = cfg;
  cycle_cfg.engine = SimEngine::kActiveSet;
  Network net(cycle_cfg);
  for (std::int32_t n = 0; n < net.shape().node_count(); ++n)
    net.set_sink(n, nullptr);
  run_network(net, schedule);

  if (free) expect_same_results(ana, net);
  return free;
}

NocConfig small_cfg(std::int32_t rows, std::int32_t cols) {
  NocConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.flit_payload_bits = 96;
  return cfg;
}

TEST(AnalyticalEngine, LinkTableMatchesNetworkRegistrationOrder) {
  for (auto [rows, cols] : {std::pair{1, 2}, {4, 1}, {3, 5}, {4, 4}}) {
    const NocConfig cfg = small_cfg(rows, cols);
    const std::vector<LinkObservation> ana =
        AnalyticalEngine(cfg).bt().snapshot();
    const std::vector<LinkObservation> net = Network(cfg).bt().snapshot();
    ASSERT_EQ(ana.size(), net.size()) << rows << "x" << cols;
    for (std::size_t id = 0; id < net.size(); ++id)
      EXPECT_EQ(ana[id].info, net[id].info)
          << rows << "x" << cols << " link " << id;
  }
}

TEST(AnalyticalEngine, SinglePacketEveryPair4x3) {
  // Every (src, dst) pair, one packet each run: pins the zero-load
  // latency/drain formulas for every route length including dst == src.
  NocConfig cfg = small_cfg(4, 3);
  cfg.allow_self_traffic = true;
  for (std::int32_t src = 0; src < 12; ++src)
    for (std::int32_t dst = 0; dst < 12; ++dst) {
      const std::vector<ScheduledPacket> schedule{
          {7, src, dst,
           make_payloads(cfg.flit_payload_bits, 3,
                         static_cast<std::uint64_t>(src * 100 + dst))}};
      EXPECT_TRUE(run_differential(cfg, schedule))
          << src << " -> " << dst;
    }
}

TEST(AnalyticalEngine, SingleFlitAndLongPackets) {
  const NocConfig cfg = small_cfg(4, 4);
  std::vector<ScheduledPacket> schedule;
  schedule.push_back({0, 0, 15, make_payloads(cfg.flit_payload_bits, 1, 1)});
  schedule.push_back({40, 5, 6, make_payloads(cfg.flit_payload_bits, 17, 2)});
  schedule.push_back({120, 12, 3, make_payloads(cfg.flit_payload_bits, 9, 3)});
  EXPECT_TRUE(run_differential(cfg, schedule));
}

TEST(AnalyticalEngine, DisjointRoutesSameCycle) {
  // Simultaneous packets on non-intersecting routes stay congestion-free.
  const NocConfig cfg = small_cfg(4, 4);
  std::vector<ScheduledPacket> schedule;
  schedule.push_back({3, 0, 3, make_payloads(cfg.flit_payload_bits, 4, 10)});
  schedule.push_back({3, 12, 15, make_payloads(cfg.flit_payload_bits, 4, 11)});
  schedule.push_back({3, 4, 7, make_payloads(cfg.flit_payload_bits, 4, 12)});
  EXPECT_TRUE(run_differential(cfg, schedule));
}

TEST(AnalyticalEngine, BackToBackOnSharedLink) {
  // Two packets share their whole route with occupancy windows exactly
  // adjacent (gap 0): still congestion-free, wire state carries the
  // boundary transition between the packets.
  const NocConfig cfg = small_cfg(4, 4);
  std::vector<ScheduledPacket> schedule;
  schedule.push_back({10, 1, 14, make_payloads(cfg.flit_payload_bits, 5, 20)});
  schedule.push_back({15, 1, 14, make_payloads(cfg.flit_payload_bits, 5, 21)});
  EXPECT_TRUE(run_differential(cfg, schedule));
}

TEST(AnalyticalEngine, SparseRandomSchedule16x16) {
  // A paper-scale mesh with randomized sparse traffic; serialized packets
  // (gap > max drain distance) keep it congestion-free by construction.
  NocConfig cfg = small_cfg(16, 16);
  Rng rng(99);
  std::vector<ScheduledPacket> schedule;
  std::uint64_t cycle = 0;
  for (int i = 0; i < 60; ++i) {
    const auto src = static_cast<std::int32_t>(rng.uniform_int(0, 255));
    auto dst = static_cast<std::int32_t>(rng.uniform_int(0, 255));
    if (dst == src) dst = (dst + 1) % 256;
    schedule.push_back(
        {cycle, src, dst,
         make_payloads(cfg.flit_payload_bits,
                       static_cast<std::size_t>(rng.uniform_int(1, 6)),
                       static_cast<std::uint64_t>(i))});
    cycle += 45;  // > max 30 hops + 6 flits + constant drain slack
  }
  EXPECT_TRUE(run_differential(cfg, schedule));
}

TEST(AnalyticalEngine, YxRoutingAndTallMesh) {
  NocConfig cfg = small_cfg(6, 2);
  cfg.routing = RoutingAlgorithm::kYX;
  std::vector<ScheduledPacket> schedule;
  schedule.push_back({0, 0, 11, make_payloads(cfg.flit_payload_bits, 4, 30)});
  schedule.push_back({60, 11, 0, make_payloads(cfg.flit_payload_bits, 4, 31)});
  schedule.push_back({120, 3, 8, make_payloads(cfg.flit_payload_bits, 2, 32)});
  EXPECT_TRUE(run_differential(cfg, schedule));
}

TEST(AnalyticalEngine, ChannelLatencyTwo) {
  NocConfig cfg = small_cfg(3, 3);
  cfg.channel_latency = 2;
  cfg.vc_buffer_depth = 4;  // exactly 2 * latency: still streamable
  std::vector<ScheduledPacket> schedule;
  schedule.push_back({5, 0, 8, make_payloads(cfg.flit_payload_bits, 4, 40)});
  schedule.push_back({90, 8, 0, make_payloads(cfg.flit_payload_bits, 3, 41)});
  EXPECT_TRUE(run_differential(cfg, schedule));
}

TEST(AnalyticalEngine, DetectsContentionOnSharedLink) {
  // Same source, same cycle: the injection link is oversubscribed.
  const NocConfig cfg = small_cfg(4, 4);
  AnalyticalEngine ana(cfg);
  ana.inject(5, 0, 3, make_payloads(cfg.flit_payload_bits, 4, 50));
  ana.inject(5, 0, 12, make_payloads(cfg.flit_payload_bits, 4, 51));
  EXPECT_FALSE(ana.run());
  EXPECT_NE(ana.contention_detail().find("not congestion-free"),
            std::string::npos)
      << ana.contention_detail();
}

TEST(AnalyticalEngine, DetectsContentionMidRoute) {
  // Different sources whose XY routes merge on the same east-bound column
  // segment at overlapping cycles.
  const NocConfig cfg = small_cfg(4, 4);
  AnalyticalEngine ana(cfg);
  ana.inject(0, 0, 3, make_payloads(cfg.flit_payload_bits, 6, 60));
  ana.inject(1, 1, 3, make_payloads(cfg.flit_payload_bits, 6, 61));
  EXPECT_FALSE(ana.run());
  EXPECT_NE(ana.contention_detail().find("link"), std::string::npos);
}

TEST(AnalyticalEngine, ShallowBuffersAreUnsupported) {
  NocConfig cfg = small_cfg(3, 3);
  cfg.vc_buffer_depth = 1;  // < 2 * channel_latency: cannot stream
  EXPECT_NE(AnalyticalEngine::unsupported_reason(cfg), "");
  AnalyticalEngine ana(cfg);
  ana.inject(0, 0, 8, make_payloads(cfg.flit_payload_bits, 4, 70));
  EXPECT_FALSE(ana.run());
  EXPECT_NE(ana.contention_detail().find("vc_buffer_depth"),
            std::string::npos);
  // The default config is supported.
  EXPECT_EQ(AnalyticalEngine::unsupported_reason(NocConfig{}), "");
}

TEST(AnalyticalEngine, InjectValidationMirrorsNetwork) {
  NocConfig cfg = small_cfg(2, 2);
  cfg.allow_self_traffic = false;
  AnalyticalEngine ana(cfg);
  const auto payloads = make_payloads(cfg.flit_payload_bits, 2, 80);
  EXPECT_THROW(ana.inject(0, -1, 1, payloads), std::invalid_argument);
  EXPECT_THROW(ana.inject(0, 0, 4, payloads), std::invalid_argument);
  EXPECT_THROW(ana.inject(0, 1, 1, payloads), std::invalid_argument);
  EXPECT_THROW(ana.inject(0, 0, 1, {}), std::invalid_argument);
  EXPECT_THROW(ana.inject(0, 0, 1, make_payloads(32, 2, 81)),
               std::invalid_argument);
  EXPECT_THROW([[maybe_unused]] auto r = Network(cfg).inject(1, 1, payloads),
               std::invalid_argument);
  // Network refuses to run the analytical backend in its cycle loop.
  NocConfig bad = cfg;
  bad.engine = SimEngine::kAnalytical;
  EXPECT_THROW(Network net(bad), std::invalid_argument);
  // Single-shot lifecycle: no injecting or re-running after run().
  ana.inject(0, 0, 1, payloads);
  ASSERT_TRUE(ana.run());
  EXPECT_THROW(ana.inject(9, 0, 1, payloads), std::logic_error);
  EXPECT_THROW(ana.run(), std::logic_error);
}

TEST(AnalyticalEngine, EmptyScheduleIsTrivial) {
  AnalyticalEngine ana(small_cfg(4, 4));
  EXPECT_TRUE(ana.run());
  EXPECT_EQ(ana.cycle(), 0u);
  EXPECT_EQ(ana.bt().total(), 0u);
  EXPECT_EQ(ana.stats().packets_delivered, 0u);
}

}  // namespace
}  // namespace nocbt::noc
