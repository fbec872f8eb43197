// Unit and integration tests for the bit-transition recorder (paper Fig. 8).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "noc/bt_recorder.h"
#include "noc/network.h"

namespace nocbt::noc {
namespace {

BitVec pattern64(std::uint64_t bits) {
  BitVec v(64);
  v.set_field(0, 64, bits);
  return v;
}

TEST(BtRecorder, CountsXorPopcountAgainstPreviousFlit) {
  BtRecorder rec(64);
  const auto link = rec.register_link({LinkKind::kInterRouter, 0, 1, kEast});
  rec.observe(link, pattern64(0x0));  // wires start at 0: no transitions
  EXPECT_EQ(rec.total(), 0u);
  rec.observe(link, pattern64(0xFF));  // 8 transitions
  EXPECT_EQ(rec.total(), 8u);
  rec.observe(link, pattern64(0xF0));  // 4 transitions
  EXPECT_EQ(rec.total(), 12u);
  rec.observe(link, pattern64(0xF0));  // identical: 0 transitions
  EXPECT_EQ(rec.total(), 12u);
}

TEST(BtRecorder, FirstFlitCountsFromZeroWireState) {
  BtRecorder rec(64);
  const auto link = rec.register_link({LinkKind::kInterRouter, 0, 1, kEast});
  rec.observe(link, pattern64(0xFFFF));
  EXPECT_EQ(rec.total(), 16u);
}

TEST(BtRecorder, LinksAreIndependent) {
  BtRecorder rec(64);
  const auto a = rec.register_link({LinkKind::kInterRouter, 0, 1, kEast});
  const auto b = rec.register_link({LinkKind::kInterRouter, 1, 2, kEast});
  rec.observe(a, pattern64(0xFF));
  rec.observe(b, pattern64(0x0F));
  const std::vector<LinkObservation> links = rec.snapshot();
  EXPECT_EQ(links[a].transitions, 8u);
  EXPECT_EQ(links[b].transitions, 4u);
  EXPECT_EQ(rec.total(), 12u);
  EXPECT_EQ(links[a].flits, 1u);
  EXPECT_EQ(links[b].flits, 1u);
}

TEST(BtRecorder, ScopeFiltersKinds) {
  // total() is Fig. 8's sum over router output ports: inter-router plus
  // ejection links, never injection links.
  BtRecorder rec(64);
  const auto inj = rec.register_link({LinkKind::kInjection, 0, 0, -1});
  const auto mid = rec.register_link({LinkKind::kInterRouter, 0, 1, kEast});
  const auto ej = rec.register_link({LinkKind::kEjection, 1, 1, kLocal});
  rec.observe(inj, pattern64(0xF));
  rec.observe(mid, pattern64(0xFF));
  rec.observe(ej, pattern64(0xFFF));
  EXPECT_EQ(rec.total(), 8u + 12u);
  EXPECT_EQ(rec.total_all_links(), 4u + 8u + 12u);
  EXPECT_EQ(rec.by_kind(LinkKind::kInjection), 4u);
  EXPECT_EQ(rec.by_kind(LinkKind::kInterRouter), 8u);
  EXPECT_EQ(rec.by_kind(LinkKind::kEjection), 12u);
}

TEST(BtRecorder, AddCountsTotalsWithoutTouchingTheWire) {
  BtRecorder rec(64);
  const auto inj = rec.register_link({LinkKind::kInjection, 0, 0, -1});
  const auto ej = rec.register_link({LinkKind::kEjection, 1, 1, kLocal});
  rec.add(ej, 5, 30);
  rec.add(inj, 2, 7);
  EXPECT_EQ(rec.total(), 30u);
  EXPECT_EQ(rec.total_all_links(), 37u);
  EXPECT_EQ(rec.snapshot()[static_cast<std::size_t>(ej)].flits, 5u);
  // The wire register still holds the all-zero reset state.
  rec.observe(ej, pattern64(0xFF));
  EXPECT_EQ(rec.total(), 38u);
  EXPECT_EQ(rec.snapshot()[static_cast<std::size_t>(ej)].flits, 6u);
}

TEST(BtRecorder, NetworkAccumulatesBtOnTraffic) {
  NocConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  cfg.flit_payload_bits = 64;
  Network net(cfg);
  net.set_sink(3, [](Packet&&, std::uint64_t) {});

  // Two identical-payload flits in one packet: transitions happen only on
  // the first flit of each link (wire state 0 -> pattern), then 0 between
  // the equal consecutive flits.
  std::vector<BitVec> payloads(2, pattern64(0xFFFF));
  net.inject(0, 3, payloads);
  ASSERT_TRUE(net.run_until_idle(10'000));
  // Route 0 -> 3 in a 2x2 mesh: 2 inter-router links + 1 ejection link
  // count toward total(); the injection link does not.
  EXPECT_EQ(net.bt().total(), 3u * 16u);
  std::uint64_t flits[3] = {0, 0, 0};
  for (const LinkObservation& link : net.bt().snapshot())
    flits[static_cast<std::size_t>(link.info.kind)] += link.flits;
  EXPECT_EQ(flits[static_cast<std::size_t>(LinkKind::kInjection)], 2u);
  EXPECT_EQ(flits[static_cast<std::size_t>(LinkKind::kInterRouter)], 4u);
  EXPECT_EQ(flits[static_cast<std::size_t>(LinkKind::kEjection)], 2u);
}

TEST(BtRecorder, AlternatingPayloadsMaximizeBt) {
  NocConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  cfg.flit_payload_bits = 64;
  Network net(cfg);
  net.set_sink(1, [](Packet&&, std::uint64_t) {});

  std::vector<BitVec> payloads;
  for (int i = 0; i < 8; ++i)
    payloads.push_back(pattern64(i % 2 ? ~0ull : 0ull));
  net.inject(0, 1, payloads);
  ASSERT_TRUE(net.run_until_idle(10'000));
  // On the single inter-router link: the first flit costs 0 transitions
  // (wire already 0); each subsequent flit flips all 64 wires: 7 * 64.
  EXPECT_EQ(net.bt().by_kind(LinkKind::kInterRouter), 7u * 64u);
}

TEST(BtRecorder, LinkCountFor2x2Mesh) {
  NocConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  cfg.flit_payload_bits = 64;
  Network net(cfg);
  // 2x2 mesh: 8 directed inter-router links + 4 injection + 4 ejection.
  EXPECT_EQ(net.bt().snapshot().size(), 16u);
}

}  // namespace
}  // namespace nocbt::noc
