// Pinned router grants. Both cycle engines step the same Router, so the
// engine differential suite cannot see a change in which VC or input port
// an allocator grants: both engines would change together. These digests
// were recorded from the round-robin allocators that scanned request
// vectors, before they moved to bit masks, and any change in a grant
// changes a digest. Each digest hashes, over one saturated run, every
// delivery in sink-callback order (packet id, eject cycle, hops), every
// link's flit and BT counters, and the engine's cycles_stepped and
// components_stepped (so each engine has its own digest).
//
// The cases cover 1, 2, 4, 13 and 64 VCs (13 is the first count whose
// 5 * num_vcs request bits span two 64-bit words), buffer depths 1 and 4,
// channel latencies 1 and 2, XY and YX routing, and 4x4, 3x5 and 1x6
// meshes. Every case allows self traffic, so the local ports carry
// NI-to-NI loopback packets too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "noc/network.h"

namespace nocbt::noc {
namespace {

struct PinnedCase {
  const char* name;
  std::int32_t rows;
  std::int32_t cols;
  std::int32_t num_vcs;
  std::int32_t depth;
  unsigned latency;
  RoutingAlgorithm routing;
  bool hotspot;  ///< half the packets go to one node, the rest uniform
  const char* active_digest;
  const char* fullscan_digest;
};

constexpr std::uint64_t kInjectCycles = 64;
constexpr std::uint64_t kRatePercent = 30;  ///< packets per node per cycle
constexpr unsigned kPayloadBits = 32;

/// Draws come straight from the engine's bits (modulo), not through a
/// standard distribution, so the traffic is the same on every library.
std::uint64_t draw(Rng& rng, std::uint64_t n) { return rng.bits64() % n; }

std::string run_digest(const PinnedCase& c, SimEngine engine,
                       std::uint64_t seed) {
  NocConfig cfg;
  cfg.rows = c.rows;
  cfg.cols = c.cols;
  cfg.num_vcs = c.num_vcs;
  cfg.vc_buffer_depth = c.depth;
  cfg.channel_latency = c.latency;
  cfg.routing = c.routing;
  cfg.flit_payload_bits = kPayloadBits;
  cfg.allow_self_traffic = true;
  cfg.engine = engine;
  Network net(cfg);

  StableHash h;
  const std::int32_t nodes = cfg.node_count();
  for (std::int32_t node = 0; node < nodes; ++node)
    net.set_sink(node, [&h](Packet&& p, std::uint64_t cycle) {
      h.add(p.id);
      h.add(cycle);
      h.add(static_cast<std::uint64_t>(p.hops));
    });

  Rng rng(seed);
  const auto hot = static_cast<std::uint64_t>(nodes / 2);
  for (std::uint64_t cycle = 0; cycle < kInjectCycles; ++cycle) {
    for (std::int32_t src = 0; src < nodes; ++src) {
      if (draw(rng, 100) >= kRatePercent) continue;
      std::uint64_t dst = draw(rng, static_cast<std::uint64_t>(nodes));
      if (c.hotspot && draw(rng, 2) == 0) dst = hot;
      const auto flits = static_cast<std::size_t>(1 + draw(rng, 6));
      std::vector<BitVec> payloads(flits, BitVec(kPayloadBits));
      for (BitVec& p : payloads) p.set_field(0, kPayloadBits, rng.bits64());
      net.inject(src, static_cast<std::int32_t>(dst), std::move(payloads));
    }
    net.step();
  }
  EXPECT_TRUE(net.run_until_idle(1'000'000)) << c.name << " did not drain";

  for (const LinkObservation& link : net.bt().snapshot()) {
    h.add(link.flits);
    h.add(link.transitions);
  }
  h.add(net.stats().sim.cycles_stepped);
  h.add(net.stats().sim.components_stepped);
  return h.hex();
}

constexpr RoutingAlgorithm XY = RoutingAlgorithm::kXY;
constexpr RoutingAlgorithm YX = RoutingAlgorithm::kYX;

const PinnedCase kCases[] = {
    // name, mesh, vcs, depth, latency, routing, hotspot, digests
    {"uniform_4x4_v1_d1", 4, 4, 1, 1, 1, XY, false,
     "a3cae42151bc1fca8059f4b3df9e3501",
     "0d1386b1d3eb6cc0903fad62b3ec418b"},
    {"hotspot_3x5_v1_d4", 3, 5, 1, 4, 2, YX, true,
     "ff3b848847251d2819d2c380ebf5a8eb",
     "b392b97aad8b3dcd6628f661b2720e9a"},
    {"uniform_1x6_v2_d1", 1, 6, 2, 1, 2, XY, false,
     "49a7edd7d67f21bb7c2859489a3dc310",
     "c2dca257f363df15ed74a0aac6494e6a"},
    {"hotspot_4x4_v2_d4", 4, 4, 2, 4, 1, YX, true,
     "f542740cbe7319d40804c5388fa7bc43",
     "09a6fb4d7bafe2fc464fa0c0926b7fbb"},
    {"uniform_3x5_v4_d1", 3, 5, 4, 1, 1, YX, false,
     "fcbd53b2e6444d84172eaaeb68002a3b",
     "b0d3cfe71ba82c601d997776bb57d673"},
    {"hotspot_4x4_v4_d4", 4, 4, 4, 4, 1, XY, true,
     "06ac1000af8e7f1f3dbdec93f371e364",
     "bc5bdd52ee28b8a1d67499b2d0ecab3a"},
    {"uniform_4x4_v4_d4_l2", 4, 4, 4, 4, 2, YX, false,
     "dbc5510ff9ad0882aaad5d33e83d54ad",
     "9918a7ea0e236de791cedacb49b74980"},
    {"hotspot_1x6_v4_d1", 1, 6, 4, 1, 1, XY, true,
     "c9a1c9ee2bcef2df2b64fcb2cb3baf54",
     "fcb9d5ea30c2f2859353548999461486"},
    {"uniform_4x4_v13_d1", 4, 4, 13, 1, 2, XY, false,
     "f5fee47ddc74aaf59fea77b5e638b37e",
     "7577316f853c07b41f682ad171c28723"},
    {"hotspot_3x5_v13_d4", 3, 5, 13, 4, 1, YX, true,
     "091cecdc4b8e4be112d7ec8a6b90288e",
     "a3384b83771afdbca14cf598ff7a283f"},
    {"uniform_1x6_v13_d4", 1, 6, 13, 4, 1, YX, false,
     "ad7e76fce92d023952dc37820fd01756",
     "facbd101fa061f50f5e9e51ef7982453"},
    {"hotspot_4x4_v13_d1", 4, 4, 13, 1, 2, XY, true,
     "4bd459f68982da1e007c697e9f047705",
     "e96b5569589e3f21d781dad159aa7ee2"},
    {"uniform_3x5_v64_d4", 3, 5, 64, 4, 1, XY, false,
     "25e9e5b56d929b93918491b2ede66a5c",
     "0c04ddbeedfc0664e1a742d745ad42cf"},
    {"hotspot_4x4_v64_d1", 4, 4, 64, 1, 2, YX, true,
     "d7771f4e80bd42176249747780f225b4",
     "06cfbddae6898ff30d8082f281639fa0"},
    {"hotspot_1x6_v64_d4", 1, 6, 64, 4, 2, XY, true,
     "1b771b7e07c978399b9c243fcc4ba39e",
     "5097a23c459a6e979fd6244e5ee3d270"},
    {"uniform_4x4_v64_d1", 4, 4, 64, 1, 1, XY, false,
     "f48855e76310c2f664d9a035ae28bc41",
     "4e33bd014faf7757772c09f56c1e2274"},
};

TEST(NocPinned, ContendedNetworksMatchPinnedDigests) {
  std::uint64_t seed = 2025;
  for (const PinnedCase& c : kCases) {
    ++seed;
    EXPECT_EQ(run_digest(c, SimEngine::kActiveSet, seed), c.active_digest)
        << c.name << " (active-set)";
    EXPECT_EQ(run_digest(c, SimEngine::kFullScan, seed), c.fullscan_digest)
        << c.name << " (full-scan)";
  }
}

}  // namespace
}  // namespace nocbt::noc
