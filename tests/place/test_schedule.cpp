// Tests for build_schedule: hand-computed traffic accounting, per-source
// serialization, on-PE locality and payload derivation from real model
// weights. The payload-carrying trace round trip is tested on
// sim::record_schedule (tests/sim/test_placement_traffic.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnn/activation.h"
#include "dnn/conv2d.h"
#include "place/schedule.h"

namespace nocbt::place {
namespace {

using dnn::Conv2d;
using dnn::Relu;
using dnn::Sequential;
using dnn::Shape;

/// Deterministic activation source: 0, 1, 2, ... in draw order.
TrafficConfig counting_config() {
  TrafficConfig cfg;
  auto counter = std::make_shared<std::uint32_t>(0);
  cfg.draw_activation = [counter] { return (*counter)++; };
  return cfg;
}

/// Single-PE placement: 1x2 mesh, MC at node 0, the only PE at node 1.
struct Chain1x2 {
  noc::MeshShape shape{1, 2};
  accel::NodeRoles roles = accel::assign_roles(shape, 1);
};

TEST(Schedule, HandComputedAccountingOnASingleConv) {
  Sequential model;
  auto conv = std::make_unique<Conv2d>(1, 2, 3, 1, 1);
  std::iota(conv->weight().data().begin(), conv->weight().data().end(), 1.0f);
  std::iota(conv->bias().data().begin(), conv->bias().data().end(), 100.0f);
  model.add(std::move(conv));
  const Chain1x2 m;
  const Placement p = place_model(model, Shape{1, 1, 4, 4}, m.shape, m.roles,
                                  policies().get("rowmajor"), 1);
  const TrafficConfig cfg = counting_config();
  const PlacedSchedule s = build_schedule(p, cfg);

  // One conv (2 units x 10 weights) fed a 4x4 ifmap, then the drain phase.
  EXPECT_EQ(s.phases, 2u);
  EXPECT_EQ(s.mc_to_pe_values, 20u + 16u);
  EXPECT_EQ(s.pe_to_pe_values, 0u);
  EXPECT_EQ(s.pe_to_mc_values, 2u * 16u);
  EXPECT_EQ(s.local_values, 0u);

  // Default pairs_per_packet (64) holds each transfer in one packet.
  ASSERT_EQ(s.packets.size(), 2u);
  const InjectionRequest& feed = s.packets[0];
  EXPECT_EQ(feed.src, 0);
  EXPECT_EQ(feed.dst, 1);
  EXPECT_EQ(feed.cycle, 0u);
  // Two streams zip to max(20, 16) pairs; the shorter (acts) cycles.
  ASSERT_EQ(feed.weights.size(), 20u);
  ASSERT_EQ(feed.inputs.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(feed.weights[i], cfg.weight_codec.encode(p.ops[0].weights[i]))
        << i;
    EXPECT_EQ(feed.inputs[i], static_cast<std::uint32_t>(i % 16)) << i;
  }

  // Drain starts after the feed's 3 flits (20 pairs, 8 per flit) and splits
  // its single 32-value stream alternately across the two halves.
  const InjectionRequest& drain = s.packets[1];
  EXPECT_EQ(drain.src, 1);
  EXPECT_EQ(drain.dst, 0);
  EXPECT_EQ(drain.cycle, 3u);
  ASSERT_EQ(drain.weights.size(), 16u);
  ASSERT_EQ(drain.inputs.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(drain.weights[i], static_cast<std::uint32_t>(16 + 2 * i));
    EXPECT_EQ(drain.inputs[i], static_cast<std::uint32_t>(16 + 2 * i + 1));
  }
}

TEST(Schedule, HandComputedAccountingOnATiledTwoConvModel) {
  Sequential model;
  model.emplace<Conv2d>(1, 4, 3, 1, 1);  // {1,1,4,4} -> {1,4,4,4}
  model.emplace<Conv2d>(4, 6, 3, 1, 1);  // -> {1,6,4,4}
  const noc::MeshShape shape(4, 4);
  const accel::NodeRoles roles = accel::assign_roles(shape, 2);
  const Placement p = place_model(model, Shape{1, 1, 4, 4}, shape, roles,
                                  policies().get("rowmajor"), 3);
  const PlacedSchedule s = build_schedule(p, counting_config());

  // op0: 3 tiles x (unit-slice weights + full 16-value ifmap each):
  //   (1 + 1 + 2) * 10 weights + 3 * 16 acts = 88.
  // op1: 6 units * 37 weights, no model-input edge: 222. Total 310.
  EXPECT_EQ(s.mc_to_pe_values, 310u);
  // op1's 3 consumer tiles each read all of op0's tile shares of the
  // 64-value activation volume (16 + 16 + 32); disjoint PEs, so nothing
  // stays local.
  EXPECT_EQ(s.pe_to_pe_values, 3u * 64u);
  EXPECT_EQ(s.local_values, 0u);
  // Drain: 6 output channels x 16 pixels.
  EXPECT_EQ(s.pe_to_mc_values, 96u);
  EXPECT_EQ(s.phases, 3u);
}

TEST(Schedule, PacketsAreSortedAndEachSourceSerializesItsFlits) {
  Sequential model;
  model.emplace<Conv2d>(1, 4, 3, 1, 1);
  model.emplace<Conv2d>(4, 6, 3, 1, 1);
  const noc::MeshShape shape(4, 4);
  const accel::NodeRoles roles = accel::assign_roles(shape, 2);
  const Placement p = place_model(model, Shape{1, 1, 4, 4}, shape, roles,
                                  policies().get("rowmajor"), 3);
  TrafficConfig cfg = counting_config();
  cfg.pairs_per_packet = 4;  // force multi-packet transfers
  const PlacedSchedule s = build_schedule(p, cfg);

  ASSERT_GT(s.packets.size(), 2u);
  std::map<std::int32_t, std::uint64_t> next_free;
  for (std::size_t i = 0; i < s.packets.size(); ++i) {
    const InjectionRequest& pkt = s.packets[i];
    if (i > 0) {
      EXPECT_GE(pkt.cycle, s.packets[i - 1].cycle) << "unsorted at " << i;
    }
    ASSERT_EQ(pkt.weights.size(), pkt.inputs.size());
    ASSERT_GE(pkt.weights.size(), 1u);
    ASSERT_LE(pkt.weights.size(), cfg.pairs_per_packet);
    EXPECT_NE(pkt.src, pkt.dst);
    // A source NI never overlaps its own packets: each injection waits for
    // the previous packet's flits to leave.
    const auto it = next_free.find(pkt.src);
    if (it != next_free.end()) {
      EXPECT_GE(pkt.cycle, it->second) << "source " << pkt.src << " overlaps";
    }
    next_free[pkt.src] =
        pkt.cycle + accel::flits_needed(
                        static_cast<std::uint32_t>(pkt.weights.size()),
                        /*has_bias=*/false, cfg.layout);
  }
}

TEST(Schedule, CoLocatedProducerConsumerFlowsStayOnThePe) {
  Sequential model;
  model.emplace<Conv2d>(1, 2, 3, 1, 1);
  model.emplace<Relu>();
  model.emplace<Conv2d>(2, 2, 3, 1, 1);
  const Chain1x2 m;
  const Placement p = place_model(model, Shape{1, 1, 4, 4}, m.shape, m.roles,
                                  policies().get("rowmajor"), 1);
  const PlacedSchedule s = build_schedule(p, counting_config());

  // Both convs live on the single PE, so the inter-layer activations
  // (2 channels x 16 pixels) never touch the NoC.
  EXPECT_EQ(s.local_values, 32u);
  EXPECT_EQ(s.pe_to_pe_values, 0u);
  for (const InjectionRequest& pkt : s.packets) {
    EXPECT_TRUE(pkt.src == 0 || pkt.dst == 0)
        << "unexpected PE-to-PE packet " << pkt.src << "->" << pkt.dst;
  }
}

TEST(Schedule, RejectsBadConfig) {
  Sequential model;
  model.emplace<Conv2d>(1, 2, 3, 1, 1);
  const Chain1x2 m;
  const Placement p = place_model(model, Shape{1, 1, 4, 4}, m.shape, m.roles,
                                  policies().get("rowmajor"), 1);

  TrafficConfig no_source;  // draw_activation left empty
  EXPECT_THROW((void)build_schedule(p, no_source), std::invalid_argument);

  TrafficConfig tiny = counting_config();
  tiny.layout.values_per_flit = 0;  // cannot hold a (weight, input) pair
  EXPECT_THROW((void)build_schedule(p, tiny), std::invalid_argument);

  TrafficConfig zero_window = counting_config();
  zero_window.pairs_per_packet = 0;
  EXPECT_THROW((void)build_schedule(p, zero_window), std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::place
