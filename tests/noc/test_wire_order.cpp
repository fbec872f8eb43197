// Wire-order recording and replay: a timing run records which flits each
// link carried, in order; score_wire_order charges any payload variant
// over that order. Replaying must reproduce a real run's BtRecorder
// exactly — per link, under VC interleaving and backpressure — and the
// analytical engine must emit the order the cycle engines realize.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"
#include "noc/wire_order.h"

namespace nocbt::noc {
namespace {

struct Injection {
  std::uint64_t cycle;
  std::int32_t src;
  std::int32_t dst;
  std::size_t flits;
};

/// Random traffic: `count` packets of 1-5 flits over `spread` cycles.
std::vector<Injection> random_schedule(std::int32_t nodes, std::size_t count,
                                       std::uint64_t spread,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Injection> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<std::int32_t>(rng.bits64() % nodes);
    auto dst = static_cast<std::int32_t>(rng.bits64() % nodes);
    if (dst == src) dst = (dst + 1) % nodes;
    out.push_back({spread ? rng.bits64() % spread : 0, src, dst,
                   1 + static_cast<std::size_t>(rng.bits64() % 5)});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Injection& a, const Injection& b) {
                     return a.cycle < b.cycle;
                   });
  return out;
}

/// One random payload per flit of every packet.
std::vector<std::vector<BitVec>> random_payloads(
    const std::vector<Injection>& schedule, unsigned bits,
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<BitVec>> out;
  for (const Injection& inj : schedule) {
    std::vector<BitVec> packet;
    for (std::size_t f = 0; f < inj.flits; ++f) {
      BitVec v(bits);
      for (unsigned w = 0; w < bits; w += 64)
        v.set_field(w, bits - w >= 64 ? 64 : bits - w, rng.bits64());
      packet.push_back(std::move(v));
    }
    out.push_back(std::move(packet));
  }
  return out;
}

FlatPayloads flatten(const std::vector<std::vector<BitVec>>& payloads,
                     unsigned bits) {
  FlatPayloads flat;
  flat.words_per_flit = (bits + 63) / 64;
  for (const auto& packet : payloads) {
    for (const BitVec& flit : packet)
      flat.words.insert(flat.words.end(), flit.words().begin(),
                        flit.words().end());
    flat.packet_begin.push_back(flat.packet_begin.back() +
                                static_cast<std::uint32_t>(packet.size()));
  }
  return flat;
}

/// Drive `schedule` with `payloads` through a Network, optionally
/// recording its wire order.
struct CycleRun {
  std::vector<LinkObservation> links;
  std::uint64_t total = 0;
  WireOrder order;
};

CycleRun run_network(const NocConfig& cfg,
                     const std::vector<Injection>& schedule,
                     std::vector<std::vector<BitVec>> payloads) {
  Network net(cfg);
  net.record_wire_order();
  std::size_t next = 0;
  while (next < schedule.size() || !net.idle()) {
    while (next < schedule.size() && schedule[next].cycle <= net.cycle()) {
      net.inject(schedule[next].src, schedule[next].dst,
                 std::move(payloads[next]));
      ++next;
    }
    net.step();
  }
  return {net.bt().snapshot(), net.bt().total(), net.take_wire_order()};
}

/// Link `link`'s flat flit indices, read back from the delta coding that
/// WireOrder::bytes documents: zigzag(index - previous index - 1) as a
/// base-128 varint, the previous index starting at -1.
std::vector<std::uint32_t> decode(const WireOrder& order, std::size_t link) {
  std::vector<std::uint32_t> out;
  std::int64_t last = -1;
  for (std::size_t i = order.link_begin[link];
       i < order.link_begin[link + 1];) {
    std::uint64_t z = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t byte = order.bytes[i++];
      z |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) break;
    }
    last += 1 + (static_cast<std::int64_t>(z >> 1) ^
                 -static_cast<std::int64_t>(z & 1));
    out.push_back(static_cast<std::uint32_t>(last));
  }
  return out;
}

/// The message of the std::logic_error `fn` throws; empty when it throws
/// none.
template <typename Fn>
std::string logic_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return {};
}

/// True when some link carries two packets' flits interleaved.
bool has_interleaving(const WireOrder& order) {
  std::vector<std::uint32_t> packet_of(order.flits());
  for (std::uint32_t p = 0; p + 1 < order.packet_begin.size(); ++p)
    for (std::uint32_t f = order.packet_begin[p]; f < order.packet_begin[p + 1];
         ++f)
      packet_of[f] = p;
  for (std::size_t l = 0; l < order.links.size(); ++l) {
    const std::vector<std::uint32_t> flits = decode(order, l);
    std::map<std::uint32_t, std::size_t> last_seen;
    for (std::size_t i = 0; i < flits.size(); ++i) {
      const std::uint32_t p = packet_of[flits[i]];
      const auto it = last_seen.find(p);
      if (it != last_seen.end() && it->second + 1 != i) return true;
      last_seen[p] = i;
    }
  }
  return false;
}

TEST(WireOrder, ReplayReproducesEveryPayloadVariantPerLink) {
  NocConfig cfg;
  cfg.flit_payload_bits = 136;  // a ragged last word
  cfg.num_vcs = 4;
  cfg.vc_buffer_depth = 2;
  const auto schedule = random_schedule(cfg.node_count(), 160, 60, 5);
  const CycleRun timing =
      run_network(cfg, schedule, random_payloads(schedule, 136, 1));
  ASSERT_TRUE(has_interleaving(timing.order))
      << "the schedule must interleave flits on some link";

  // The timing run's own payloads, and an unrelated variant run afresh.
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto payloads = random_payloads(schedule, 136, seed);
    const CycleRun real = run_network(cfg, schedule, payloads);
    const BtRecorder replay =
        score_wire_order(timing.order, flatten(payloads, 136));
    EXPECT_EQ(replay.snapshot(), real.links) << "seed " << seed;
    EXPECT_EQ(replay.total(), real.total);
  }
}

TEST(WireOrder, AnalyticalEngineEmitsTheCycleEnginesOrder) {
  NocConfig cfg;
  cfg.flit_payload_bits = 128;
  const auto schedule = random_schedule(cfg.node_count(), 12, 4000, 9);
  const auto payloads = random_payloads(schedule, 128, 3);

  AnalyticalEngine eng(cfg);
  for (std::size_t i = 0; i < schedule.size(); ++i)
    eng.inject(schedule[i].cycle, schedule[i].src, schedule[i].dst,
               payloads[i]);
  ASSERT_TRUE(eng.run(2)) << eng.contention_detail();
  const WireOrder analytical = eng.wire_order();
  const CycleRun cycle = run_network(cfg, schedule, payloads);

  EXPECT_EQ(analytical.packet_begin, cycle.order.packet_begin);
  EXPECT_EQ(analytical.link_begin, cycle.order.link_begin);
  EXPECT_EQ(analytical.bytes, cycle.order.bytes);
  EXPECT_EQ(analytical.links, cycle.order.links);
  EXPECT_EQ(score_wire_order(analytical, flatten(payloads, 128)).snapshot(),
            eng.bt().snapshot());
}

TEST(WireOrder, DeltaCodingRoundTripsAnyOrder) {
  // Forward and backward jumps of every varint length, repeats of the
  // previous flit, and the first and last of 2^32 - 1 flits.
  WireOrderRecorder rec(2);
  rec.add_packet(3);
  rec.add_packet(std::numeric_limits<std::uint32_t>::max() - 3);
  const std::uint32_t last = std::numeric_limits<std::uint32_t>::max() - 1;
  const std::vector<std::uint32_t> link0{0,   1,    2,    3,    4,    last,
                                         0,   last, 200,  64,   63,   63,
                                         200, 1u << 14, (1u << 21) + 5,
                                         (1u << 28) + 9, 7};
  const std::vector<std::uint32_t> link1{last, last - 1, 5};
  const auto push = [&rec](std::int32_t link, std::uint32_t index) {
    if (index < 3)
      rec.push(link, 0, index);
    else
      rec.push(link, 1, index - 3);
  };
  for (const std::uint32_t i : link0) push(0, i);
  for (const std::uint32_t i : link1) push(1, i);
  NocConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  BtRecorder bt(cfg.bt_scope, cfg.flit_payload_bits);
  bt.register_link(LinkInfo{});
  bt.register_link(LinkInfo{});
  const WireOrder order = rec.finish(bt, cfg);
  EXPECT_EQ(decode(order, 0), link0);
  EXPECT_EQ(decode(order, 1), link1);
  // A back-to-back run costs one zero byte per flit.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(order.bytes[i], 0u) << i;
}

TEST(WireOrder, ScoringRejectsAMalformedOrder) {
  NocConfig cfg;
  cfg.flit_payload_bits = 64;
  const std::vector<Injection> schedule{{0, 0, 3, 3}, {0, 12, 15, 3}};
  const auto payloads = random_payloads(schedule, 64, 6);
  const CycleRun timing = run_network(cfg, schedule, payloads);
  const FlatPayloads flat = flatten(payloads, 64);
  ASSERT_EQ(score_wire_order(timing.order, flat).snapshot(), timing.links);

  // A link whose last varint claims a byte past the link's end.
  WireOrder truncated = timing.order;
  std::size_t link = 0;
  while (truncated.link_begin[link + 1] - truncated.link_begin[link] < 2)
    ++link;
  truncated.bytes[truncated.link_begin[link + 1] - 1] = 0x80;
  EXPECT_THROW((void)score_wire_order(truncated, flat), std::invalid_argument);
  // A crossing that names a flit past the sixth.
  WireOrder beyond = timing.order;
  beyond.bytes[beyond.link_begin[link]] = 12;  // zigzag(6): flat index 6
  EXPECT_THROW((void)score_wire_order(beyond, flat), std::invalid_argument);
  // Link offsets that do not cover the link table.
  WireOrder short_table = timing.order;
  short_table.link_begin.pop_back();
  EXPECT_THROW((void)score_wire_order(short_table, flat),
               std::invalid_argument);
}

TEST(WireOrder, NetworkRecordingIsOptIn) {
  NocConfig cfg;
  cfg.flit_payload_bits = 64;
  Network net(cfg);
  EXPECT_NE(logic_error_of([&] { (void)net.take_wire_order(); })
                .find("record_wire_order() was not called"),
            std::string::npos);
  net.inject(0, 1, {BitVec(64)});
  EXPECT_NE(logic_error_of([&] { net.record_wire_order(); })
                .find("packets were already injected"),
            std::string::npos);
}

TEST(WireOrder, AnalyticalOrderNeedsACongestionFreeRun) {
  NocConfig cfg;
  cfg.flit_payload_bits = 64;
  AnalyticalEngine eng(cfg);
  eng.inject(0, 0, 1, {BitVec(64), BitVec(64)});
  const std::string before = logic_error_of([&] { (void)eng.wire_order(); });
  EXPECT_NE(before.find("did not prove the schedule congestion-free"),
            std::string::npos)
      << before;
  // Two packets on one link in the same cycle: contended, so the
  // serialized order is not one a cycle engine realizes.
  eng.inject(0, 0, 1, {BitVec(64)});
  ASSERT_FALSE(eng.run());
  const std::string after = logic_error_of([&] { (void)eng.wire_order(); });
  EXPECT_NE(after.find("did not prove the schedule congestion-free"),
            std::string::npos)
      << after;
}

TEST(WireOrder, ScoringRejectsAWidthMismatch) {
  NocConfig cfg;
  cfg.flit_payload_bits = 128;
  const std::vector<Injection> schedule{{0, 0, 3, 2}};
  const CycleRun timing =
      run_network(cfg, schedule, random_payloads(schedule, 128, 4));
  EXPECT_THROW((void)score_wire_order(
                   timing.order, flatten(random_payloads(schedule, 64, 4), 64)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::noc
