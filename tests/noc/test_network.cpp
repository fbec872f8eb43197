// Integration tests for the assembled NoC: delivery, ordering, latency,
// congestion, credit conservation, and drain-to-idle behavior.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "noc/network.h"

namespace nocbt::noc {
namespace {

NocConfig small_config() {
  NocConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  cfg.num_vcs = 4;
  cfg.vc_buffer_depth = 4;
  cfg.flit_payload_bits = 64;
  return cfg;
}

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

TEST(Network, DeliversSingleFlitPacket) {
  Network net(small_config());
  bool delivered = false;
  Packet received;
  net.set_sink(15, [&](Packet&& p, std::uint64_t) {
    delivered = true;
    received = std::move(p);
  });
  const auto payloads = make_payloads(64, 1, 1);
  const auto id = net.inject(0, 15, payloads);
  ASSERT_TRUE(net.run_until_idle(10'000));
  ASSERT_TRUE(delivered);
  EXPECT_EQ(received.id, id);
  EXPECT_EQ(received.src, 0);
  EXPECT_EQ(received.dst, 15);
  EXPECT_EQ(received.hops, 6);  // Manhattan distance in a 4x4 mesh
  ASSERT_EQ(received.payloads.size(), 1u);
  EXPECT_EQ(received.payloads[0], payloads[0]);
}

TEST(Network, DeliversMultiFlitPacketIntact) {
  Network net(small_config());
  Packet received;
  net.set_sink(12, [&](Packet&& p, std::uint64_t) { received = std::move(p); });
  const auto payloads = make_payloads(64, 7, 2);
  net.inject(3, 12, payloads);
  ASSERT_TRUE(net.run_until_idle(10'000));
  ASSERT_EQ(received.payloads.size(), 7u);
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(received.payloads[i], payloads[i]) << "flit " << i;
}

TEST(Network, SelfDelivery) {
  // src == dst: the packet goes NI -> router local in -> local out -> NI.
  Network net(small_config());
  int count = 0;
  net.set_sink(5, [&](Packet&& p, std::uint64_t) {
    ++count;
    EXPECT_EQ(p.hops, 0);
  });
  net.inject(5, 5, make_payloads(64, 3, 3));
  ASSERT_TRUE(net.run_until_idle(1'000));
  EXPECT_EQ(count, 1);
}

TEST(Network, RejectsBadInput) {
  Network net(small_config());
  EXPECT_THROW(net.inject(-1, 0, make_payloads(64, 1, 4)),
               std::invalid_argument);
  EXPECT_THROW(net.inject(0, 16, make_payloads(64, 1, 4)),
               std::invalid_argument);
  EXPECT_THROW(net.inject(0, 1, {}), std::invalid_argument);
  EXPECT_THROW(net.inject(0, 1, make_payloads(32, 1, 4)),
               std::invalid_argument);
}

TEST(Network, InjectErrorsAreDescriptive) {
  Network net(small_config());
  const auto message_of = [&](std::int32_t src, std::int32_t dst,
                              std::vector<BitVec> payloads) {
    try {
      net.inject(src, dst, std::move(payloads));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Offending node id and mesh size are named.
  EXPECT_NE(message_of(-1, 0, make_payloads(64, 1, 4)).find("src node -1"),
            std::string::npos);
  EXPECT_NE(message_of(0, 99, make_payloads(64, 1, 4)).find("dst node 99"),
            std::string::npos);
  EXPECT_NE(message_of(0, 99, make_payloads(64, 1, 4)).find("16 nodes"),
            std::string::npos);
  // Width mismatch names the flit index and both widths.
  auto mixed = make_payloads(64, 2, 4);
  mixed.push_back(BitVec(32));
  const std::string width_msg = message_of(0, 1, std::move(mixed));
  EXPECT_NE(width_msg.find("payload 2"), std::string::npos);
  EXPECT_NE(width_msg.find("32 bits"), std::string::npos);
  EXPECT_NE(width_msg.find("64"), std::string::npos);
}

TEST(Network, SelfTrafficRejectedPerConfig) {
  NocConfig cfg = small_config();
  cfg.allow_self_traffic = false;
  Network net(cfg);
  EXPECT_THROW(net.inject(5, 5, make_payloads(64, 1, 3)),
               std::invalid_argument);
  // Distinct endpoints still work under the same config.
  int count = 0;
  net.set_sink(6, [&](Packet&&, std::uint64_t) { ++count; });
  net.inject(5, 6, make_payloads(64, 1, 3));
  ASSERT_TRUE(net.run_until_idle(1'000));
  EXPECT_EQ(count, 1);
  // Out-of-range checks fire before the self-traffic check.
  EXPECT_THROW(net.inject(20, 20, make_payloads(64, 1, 3)),
               std::invalid_argument);
}

TEST(Network, AllPairsDeliveredExactlyOnce) {
  Network net(small_config());
  std::map<std::uint64_t, int> delivery_count;
  for (std::int32_t node = 0; node < 16; ++node) {
    net.set_sink(node, [&](Packet&& p, std::uint64_t) {
      ++delivery_count[p.id];
    });
  }
  std::vector<std::uint64_t> ids;
  for (std::int32_t src = 0; src < 16; ++src)
    for (std::int32_t dst = 0; dst < 16; ++dst)
      ids.push_back(net.inject(src, dst, make_payloads(
                                              64, 4, 100 + src * 16 + dst)));
  ASSERT_TRUE(net.run_until_idle(100'000));
  EXPECT_EQ(delivery_count.size(), ids.size());
  for (const auto id : ids) {
    EXPECT_EQ(delivery_count[id], 1) << "packet " << id;
  }
  EXPECT_EQ(net.stats().packets_delivered, 256u);
  EXPECT_EQ(net.stats().flits_delivered, 256u * 4u);
}

TEST(Network, ZeroLoadLatencyMatchesPipelineModel) {
  // Single packet, empty network. Routers forward within the cycle
  // (single-cycle router model); each channel adds `channel_latency`. A
  // single-flit packet crossing H inter-router links traverses H + 2
  // channels (injection + H + ejection), so zero-load latency is
  // channel_latency * (H + 2).
  NocConfig cfg = small_config();
  Network net(cfg);
  std::uint64_t latency = 0;
  net.set_sink(3, [&](Packet&& p, std::uint64_t cycle) {
    latency = cycle - p.inject_cycle;
  });
  net.inject(0, 3, make_payloads(64, 1, 5));
  ASSERT_TRUE(net.run_until_idle(1'000));
  EXPECT_EQ(latency, cfg.channel_latency * (3 + 2));
}

TEST(Network, ZeroLoadLatencyScalesWithChannelLatency) {
  NocConfig cfg = small_config();
  cfg.channel_latency = 3;
  Network net(cfg);
  std::uint64_t latency = 0;
  net.set_sink(3, [&](Packet&& p, std::uint64_t cycle) {
    latency = cycle - p.inject_cycle;
  });
  net.inject(0, 3, make_payloads(64, 1, 5));
  ASSERT_TRUE(net.run_until_idle(1'000));
  EXPECT_EQ(latency, cfg.channel_latency * (3 + 2));
}

TEST(Network, HopCountMatchesManhattanUnderXY) {
  Network net(small_config());
  std::map<std::int32_t, int> hops_by_dst;
  for (std::int32_t node = 0; node < 16; ++node)
    net.set_sink(node, [&, node](Packet&& p, std::uint64_t) {
      hops_by_dst[node] = p.hops;
    });
  net.inject(0, 15, make_payloads(64, 2, 6));
  net.inject(15, 0, make_payloads(64, 2, 7));
  net.inject(1, 2, make_payloads(64, 2, 8));
  ASSERT_TRUE(net.run_until_idle(10'000));
  ASSERT_EQ(hops_by_dst.size(), 3u);
  EXPECT_EQ(hops_by_dst[15], 6);
  EXPECT_EQ(hops_by_dst[0], 6);
  EXPECT_EQ(hops_by_dst[2], 1);
}

TEST(Network, HeavyRandomTrafficDrains) {
  // Fire a burst of random traffic well above sustainable load and verify
  // the network eventually drains with every packet delivered once, its
  // payloads intact: an NI reassembles flits of packets that interleave
  // across its ejection VCs.
  Network net(small_config());
  Rng rng(11);
  std::map<std::uint64_t, std::vector<BitVec>> sent;
  std::map<std::uint64_t, int> delivered;
  std::size_t corrupted = 0;
  for (std::int32_t node = 0; node < 16; ++node)
    net.set_sink(node, [&](Packet&& p, std::uint64_t) {
      ++delivered[p.id];
      if (p.payloads != sent.at(p.id)) ++corrupted;
    });

  std::size_t injected = 0;
  for (int round = 0; round < 50; ++round) {
    for (std::int32_t src = 0; src < 16; ++src) {
      const auto dst = static_cast<std::int32_t>(rng.uniform_int(0, 15));
      const int flits = static_cast<int>(rng.uniform_int(1, 6));
      std::vector<BitVec> payloads = make_payloads(64, flits, rng.bits64());
      const std::uint64_t id = net.inject(src, dst, payloads);
      sent.emplace(id, std::move(payloads));
      ++injected;
    }
    // Interleave some simulation so source queues stay bounded.
    for (int c = 0; c < 8; ++c) net.step();
  }
  ASSERT_TRUE(net.run_until_idle(1'000'000));
  EXPECT_EQ(delivered.size(), injected);
  for (const auto& [id, count] : delivered) EXPECT_EQ(count, 1) << id;
  EXPECT_EQ(corrupted, 0u);
  EXPECT_EQ(net.buffered_flits(), 0u);
}

TEST(Network, DeliveryStatsCountNodesWithoutSink) {
  // The delivery counters do not depend on set_sink: a node that never
  // got a sink still counts the packets it receives.
  Network net(small_config());
  net.inject(0, 5, make_payloads(64, 2, 9));
  ASSERT_TRUE(net.run_until_idle(1'000));
  const NocStats& s = net.stats();
  EXPECT_EQ(s.packets_delivered, 1u);
  EXPECT_EQ(s.flits_delivered, 2u);
  EXPECT_EQ(s.packet_latency.count(), 1u);
  EXPECT_DOUBLE_EQ(s.packet_hops.mean(), 2.0);
}

TEST(Network, YXRoutingAlsoDelivers) {
  NocConfig cfg = small_config();
  cfg.routing = RoutingAlgorithm::kYX;
  Network net(cfg);
  int count = 0;
  for (std::int32_t node = 0; node < 16; ++node)
    net.set_sink(node, [&](Packet&&, std::uint64_t) { ++count; });
  for (std::int32_t src = 0; src < 16; ++src)
    net.inject(src, 15 - src, make_payloads(64, 3, 50 + src));
  ASSERT_TRUE(net.run_until_idle(100'000));
  EXPECT_EQ(count, 16);
}

TEST(Network, SingleVcStillWorks) {
  NocConfig cfg = small_config();
  cfg.num_vcs = 1;
  Network net(cfg);
  int count = 0;
  for (std::int32_t node = 0; node < 16; ++node)
    net.set_sink(node, [&](Packet&&, std::uint64_t) { ++count; });
  for (std::int32_t src = 0; src < 16; ++src)
    for (std::int32_t dst = 0; dst < 16; ++dst)
      if (src != dst) net.inject(src, dst, make_payloads(64, 3, src * 31 + dst));
  ASSERT_TRUE(net.run_until_idle(1'000'000));
  EXPECT_EQ(count, 16 * 15);
}

TEST(Network, WideFlitPayloads512) {
  NocConfig cfg = small_config();
  cfg.flit_payload_bits = 512;
  Network net(cfg);
  Packet received;
  net.set_sink(10, [&](Packet&& p, std::uint64_t) { received = std::move(p); });
  const auto payloads = make_payloads(512, 4, 12);
  net.inject(2, 10, payloads);
  ASSERT_TRUE(net.run_until_idle(10'000));
  ASSERT_EQ(received.payloads.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(received.payloads[i], payloads[i]);
}

TEST(Network, StatsAccumulate) {
  Network net(small_config());
  for (std::int32_t node = 0; node < 16; ++node)
    net.set_sink(node, [](Packet&&, std::uint64_t) {});
  net.inject(0, 15, make_payloads(64, 5, 1));
  net.inject(15, 0, make_payloads(64, 5, 2));
  ASSERT_TRUE(net.run_until_idle(10'000));
  const NocStats& s = net.stats();
  EXPECT_EQ(s.packets_injected, 2u);
  EXPECT_EQ(s.packets_delivered, 2u);
  EXPECT_EQ(s.flits_injected, 10u);
  EXPECT_EQ(s.flits_delivered, 10u);
  EXPECT_GT(s.packet_latency.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.packet_hops.mean(), 6.0);
  EXPECT_GT(s.cycles, 0u);
}

TEST(Network, RectangularMesh8x8) {
  NocConfig cfg = small_config();
  cfg.rows = 8;
  cfg.cols = 8;
  Network net(cfg);
  int count = 0;
  for (std::int32_t node = 0; node < 64; ++node)
    net.set_sink(node, [&](Packet&&, std::uint64_t) { ++count; });
  for (std::int32_t src = 0; src < 64; src += 7)
    net.inject(src, 63 - src, make_payloads(64, 3, src));
  ASSERT_TRUE(net.run_until_idle(100'000));
  EXPECT_EQ(count, 10);
}

}  // namespace
}  // namespace nocbt::noc
