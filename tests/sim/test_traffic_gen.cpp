// Tests for generate_schedule: determinism, geometry of each pattern,
// timing, payload encoding, the PacketTrace replay path, and every
// generator kind's stream pinned by digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "noc/trace.h"
#include "sim/traffic_gen.h"

namespace nocbt::sim {
namespace {

ScenarioSpec base_spec(GeneratorKind kind) {
  ScenarioSpec spec;
  spec.generator = kind;
  spec.rows = 4;
  spec.cols = 4;
  spec.format = DataFormat::kFixed8;
  spec.window = 16;
  spec.packets = 200;
  spec.injection_rate = 0.5;
  spec.seed = 77;
  return spec;
}

TEST(TrafficGen, DeterministicForFixedSeed) {
  for (const GeneratorKind kind :
       {GeneratorKind::kUniform, GeneratorKind::kTranspose,
        GeneratorKind::kBitComplement, GeneratorKind::kHotspot,
        GeneratorKind::kBurst}) {
    const ScenarioSpec spec = base_spec(kind);
    auto a = generate_schedule(spec);
    auto b = generate_schedule(spec);
    ASSERT_EQ(a.size(), b.size()) << to_string(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].cycle, b[i].cycle) << to_string(kind) << " packet " << i;
      EXPECT_EQ(a[i].src, b[i].src);
      EXPECT_EQ(a[i].dst, b[i].dst);
      EXPECT_EQ(a[i].weights, b[i].weights);
      EXPECT_EQ(a[i].inputs, b[i].inputs);
    }
  }
}

TEST(TrafficGen, SeedChangesTheStream) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform);
  auto a = generate_schedule(spec);
  spec.seed = 78;
  auto b = generate_schedule(spec);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i)
    any_difference = a[i].src != b[i].src || a[i].dst != b[i].dst ||
                     a[i].weights != b[i].weights;
  EXPECT_TRUE(any_difference);
}

TEST(TrafficGen, RequestShapeAndTiming) {
  const ScenarioSpec spec = base_spec(GeneratorKind::kUniform);
  const auto reqs = generate_schedule(spec);
  ASSERT_EQ(reqs.size(), spec.packets);
  std::uint64_t prev_cycle = 0;
  for (const auto& req : reqs) {
    EXPECT_GE(req.cycle, prev_cycle);  // non-decreasing clock
    prev_cycle = req.cycle;
    EXPECT_GE(req.src, 0);
    EXPECT_LT(req.src, 16);
    EXPECT_GE(req.dst, 0);
    EXPECT_LT(req.dst, 16);
    EXPECT_NE(req.src, req.dst);
    EXPECT_EQ(req.weights.size(), spec.window);
    EXPECT_EQ(req.inputs.size(), spec.window);
    for (const std::uint32_t pattern : req.weights)
      EXPECT_EQ(pattern >> 8, 0u) << "fixed-8 pattern wider than 8 bits";
  }
}

TEST(TrafficGen, TransposePairsNodes) {
  const auto reqs = generate_schedule(base_spec(GeneratorKind::kTranspose));
  ASSERT_FALSE(reqs.empty());
  for (const auto& req : reqs) {
    const std::int32_t r = req.src / 4;
    const std::int32_t c = req.src % 4;
    EXPECT_EQ(req.dst, c * 4 + r);
    EXPECT_NE(r, c) << "diagonal nodes must stay silent";
  }
}

TEST(TrafficGen, TransposeNeedsSquareMesh) {
  ScenarioSpec spec = base_spec(GeneratorKind::kTranspose);
  spec.rows = 2;
  spec.cols = 4;
  EXPECT_THROW((void)generate_schedule(spec), std::invalid_argument);
}

TEST(TrafficGen, BitComplementMirrorsNodeIndex) {
  const auto reqs = generate_schedule(base_spec(GeneratorKind::kBitComplement));
  ASSERT_FALSE(reqs.empty());
  for (const auto& req : reqs) EXPECT_EQ(req.dst, 15 - req.src);
}

TEST(TrafficGen, HotspotConcentratesTraffic) {
  ScenarioSpec spec = base_spec(GeneratorKind::kHotspot);
  spec.packets = 600;
  spec.hotspot_fraction = 0.5;
  const auto reqs = generate_schedule(spec);
  std::map<std::int32_t, int> dst_count;
  for (const auto& req : reqs) ++dst_count[req.dst];
  const std::int32_t center = 2 * 4 + 2;  // default hotspot: mesh center
  // ~50% of 600 packets target the hotspot; every other node splits the
  // rest, so the hotspot must dominate by a wide margin.
  EXPECT_GT(dst_count[center], 600 / 4);
  for (const auto& [dst, count] : dst_count) {
    if (dst != center) {
      EXPECT_LT(count, dst_count[center] / 2) << dst;
    }
  }
}

TEST(TrafficGen, HotspotHonorsExplicitNode) {
  ScenarioSpec spec = base_spec(GeneratorKind::kHotspot);
  spec.hotspot_node = 3;
  spec.hotspot_fraction = 1.0;
  const auto reqs = generate_schedule(spec);
  for (const auto& req : reqs) {
    EXPECT_EQ(req.dst, 3);
    EXPECT_NE(req.src, 3);
  }
}

TEST(TrafficGen, HotspotNodeOutsideMeshIsRejectedUpFront) {
  // Regression: an out-of-mesh hotspot id must be caught by validate()
  // with a message naming the value and the valid range, not surface as an
  // injection bounds error mid-campaign.
  ScenarioSpec spec = base_spec(GeneratorKind::kHotspot);
  spec.hotspot_node = 16;  // 4x4 mesh: node ids are [0, 15]
  try {
    (void)generate_schedule(spec);
    FAIL() << "out-of-mesh hotspot_node was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hotspot_node 16"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4x4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[0, 15]"), std::string::npos) << msg;
  }
  spec.hotspot_node = -2;
  EXPECT_THROW((void)generate_schedule(spec), std::invalid_argument);
  spec.hotspot_node = 15;  // boundary id stays valid
  EXPECT_NO_THROW((void)generate_schedule(spec));
}

TEST(TrafficGen, BurstClustersInjections) {
  ScenarioSpec spec = base_spec(GeneratorKind::kBurst);
  spec.packets = 40;
  spec.burst_len = 8;
  spec.burst_gap = 100;
  const auto reqs = generate_schedule(spec);
  ASSERT_EQ(reqs.size(), 40u);
  // Packets 0..7 sit one cycle apart, then a >= burst_gap jump, repeating.
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    const std::uint64_t gap = reqs[i].cycle - reqs[i - 1].cycle;
    if (i % 8 == 0)
      EXPECT_GE(gap, 100u) << "packet " << i;
    else
      EXPECT_EQ(gap, 1u) << "packet " << i;
  }
}

TEST(TrafficGen, ReplayFollowsTheTrace) {
  const std::string path = testing::TempDir() + "nocbt_replay_gen.csv";
  noc::PacketTrace trace;
  for (std::uint64_t id = 0; id < 6; ++id) {
    noc::TraceEvent e;
    e.packet_id = id;
    e.src = static_cast<std::int32_t>(id);
    e.dst = static_cast<std::int32_t>(15 - id);
    e.num_flits = static_cast<std::uint32_t>(1 + id % 3);
    e.inject_cycle = 50 - id * 5;  // deliberately unsorted
    e.eject_cycle = e.inject_cycle + 9;
    e.hops = 2;
    trace.record(e);
  }
  trace.dump_csv(path);

  ScenarioSpec spec = base_spec(GeneratorKind::kReplay);
  spec.trace_path = path;
  const auto reqs = generate_schedule(spec);
  ASSERT_EQ(reqs.size(), 6u);
  std::uint64_t prev = 0;
  for (const auto& req : reqs) {
    EXPECT_GE(req.cycle, prev);  // generator re-sorts by inject cycle
    prev = req.cycle;
    // half-half packing: pairs per packet = num_flits * (slots / 2)
    EXPECT_EQ(req.weights.size() % (spec.values_per_flit / 2), 0u);
  }
  EXPECT_EQ(reqs.front().src, 5);  // earliest inject_cycle came last in file
}

TEST(TrafficGen, ReplayRejectsTraceOutsideMesh) {
  const std::string path = testing::TempDir() + "nocbt_replay_oob.csv";
  noc::PacketTrace trace;
  noc::TraceEvent e;
  e.packet_id = 0;
  e.src = 0;
  e.dst = 63;  // valid in 8x8, not in 4x4
  e.num_flits = 1;
  e.inject_cycle = 0;
  e.eject_cycle = 5;
  e.hops = 1;
  trace.record(e);
  trace.dump_csv(path);

  ScenarioSpec spec = base_spec(GeneratorKind::kReplay);
  spec.trace_path = path;
  EXPECT_THROW((void)generate_schedule(spec), std::invalid_argument);
}

TEST(TrafficGen, ReplayRequiresTracePath) {
  EXPECT_THROW((void)generate_schedule(base_spec(GeneratorKind::kReplay)),
               std::invalid_argument);
}

TEST(TrafficGen, ModelIsNotASyntheticGenerator) {
  EXPECT_THROW((void)generate_schedule(base_spec(GeneratorKind::kModel)),
               std::invalid_argument);
}

TEST(TrafficGen, Float32PatternsUseFullWidth) {
  ScenarioSpec spec = base_spec(GeneratorKind::kUniform);
  spec.format = DataFormat::kFloat32;
  spec.packets = 4;
  const auto reqs = generate_schedule(spec);
  bool any_high_bits = false;
  for (const auto& req : reqs)
    for (const std::uint32_t pattern : req.weights)
      any_high_bits = any_high_bits || (pattern >> 8) != 0;
  EXPECT_TRUE(any_high_bits);  // IEEE-754 exponents live above bit 8
}

/// StableHash over every request's cycle, src, dst, weights and inputs.
std::string schedule_digest(const InjectionSchedule& reqs) {
  StableHash h;
  for (const InjectionRequest& req : reqs) {
    h.add(req.cycle);
    h.add(req.src);
    h.add(req.dst);
    h.add(static_cast<std::uint64_t>(req.weights.size()));
    for (const std::uint32_t w : req.weights) h.add(w);
    h.add(static_cast<std::uint64_t>(req.inputs.size()));
    for (const std::uint32_t in : req.inputs) h.add(in);
  }
  return h.hex();
}

TEST(TrafficGen, SchedulesMatchPinnedDigests) {
  // Every generator kind's stream is pinned, so a change to how schedules
  // are built must keep every RNG draw, cycle and payload in place.
  const std::map<std::string, std::string> pinned = {
      {"uniform/fixed-8", "aa4368484a240cc4b87a3646dbcde5d7"},
      {"transpose/fixed-8", "35ae9ad530697959c162b555ff29deee"},
      {"bitcomp/fixed-8", "74b2f43b17033dd05f67a3e0e121d0bf"},
      {"hotspot/fixed-8", "21b2469e7c4a0c2122d8b4f05cc6bb12"},
      {"burst/fixed-8", "0bae1926dbc4e6519298d8ba89a4de1e"},
      {"uniform/float-32", "e191a773c9c1283ba98dd3a372820ff8"},
      {"transpose/float-32", "5e3ab2675c7e8ee59131b0d1df1a11d2"},
      {"bitcomp/float-32", "cfb4cb429cfc951c441bdb47e14ca593"},
      {"hotspot/float-32", "a5214aa47dafb50a9cd2a88aa05533bd"},
      {"burst/float-32", "960e630c871e81f9db31a763888b1266"},
      {"replay/payload", "21b2469e7c4a0c2122d8b4f05cc6bb12"},
      {"replay/geometry", "704a95209dbb858127cb7bd9422b4f66"},
      {"placement/lenet/fixed-8", "6ef5f6da5adf8dded66a47c405cee511"},
      {"placement/lenet/float-32", "71dd304370cb23436cf044f8e9e9bf9c"},
      {"placement/resnet/fixed-8", "fdb01db380124ee670fb620cc2538681"},
      {"placement/resnet/float-32", "135f6f571e771d1a45b3973b481c1ebd"},
  };
  std::map<std::string, std::string> actual;
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32})
    for (const GeneratorKind kind :
         {GeneratorKind::kUniform, GeneratorKind::kTranspose,
          GeneratorKind::kBitComplement, GeneratorKind::kHotspot,
          GeneratorKind::kBurst}) {
      ScenarioSpec spec = base_spec(kind);
      spec.format = format;
      actual[to_string(kind) + "/" + to_string(format)] =
          schedule_digest(generate_schedule(spec));
    }

  // Replay of a payload-carrying trace (recorded payloads re-injected) and
  // of a geometry-only trace (payloads synthesized from the spec).
  const std::string payload_path =
      testing::TempDir() + "nocbt_pinned_payload.csv";
  record_schedule(base_spec(GeneratorKind::kHotspot)).dump_csv(payload_path);
  ScenarioSpec replay = base_spec(GeneratorKind::kReplay);
  replay.trace_path = payload_path;
  actual["replay/payload"] = schedule_digest(generate_schedule(replay));

  const std::string geometry_path =
      testing::TempDir() + "nocbt_pinned_geometry.csv";
  noc::PacketTrace geometry;
  for (std::uint64_t id = 0; id < 24; ++id) {
    noc::TraceEvent e;
    e.packet_id = id;
    e.src = static_cast<std::int32_t>(id % 16);
    e.dst = static_cast<std::int32_t>((id * 7 + 3) % 16);
    e.num_flits = static_cast<std::uint32_t>(1 + id % 4);
    e.inject_cycle = (id * 37) % 50;
    e.eject_cycle = e.inject_cycle + 9;
    e.hops = 2;
    geometry.record(e);
  }
  geometry.dump_csv(geometry_path);
  replay.trace_path = geometry_path;
  actual["replay/geometry"] = schedule_digest(generate_schedule(replay));

  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32}) {
    ScenarioSpec lenet = base_spec(GeneratorKind::kPlacement);
    lenet.format = format;
    lenet.model = "lenet";
    lenet.tiles_per_layer = 2;
    actual["placement/lenet/" + to_string(format)] =
        schedule_digest(generate_schedule(lenet));
    ScenarioSpec resnet = lenet;
    resnet.model = "resnet";
    resnet.rows = 8;
    resnet.cols = 8;
    resnet.num_mcs = 4;
    resnet.tiles_per_layer = 4;
    actual["placement/resnet/" + to_string(format)] =
        schedule_digest(generate_schedule(resnet));
  }

  ASSERT_EQ(actual.size(), pinned.size());
  for (const auto& [name, digest] : pinned)
    EXPECT_EQ(actual[name], digest) << name;
}

TEST(TrafficGen, NameRoundTrip) {
  for (const GeneratorKind kind :
       {GeneratorKind::kUniform, GeneratorKind::kTranspose,
        GeneratorKind::kBitComplement, GeneratorKind::kHotspot,
        GeneratorKind::kBurst, GeneratorKind::kReplay, GeneratorKind::kModel})
    EXPECT_EQ(parse_generator_kind(to_string(kind)), kind);
  EXPECT_THROW((void)parse_generator_kind("warp-drive"), std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::sim
