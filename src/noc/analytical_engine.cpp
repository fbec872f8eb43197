#include "noc/analytical_engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace nocbt::noc {

AnalyticalEngine::AnalyticalEngine(const NocConfig& cfg)
    : cfg_(cfg),
      shape_(cfg.rows, cfg.cols),
      bt_(cfg.bt_scope, cfg.flit_payload_bits) {
  cfg_.validate();
  stats_.sim.engine = SimEngine::kAnalytical;

  // Register links in exactly Network::build's order so link ids (and
  // therefore snapshots, heatmaps and energy rows) are interchangeable
  // between engines: all inter-router links node-major/port-minor, then
  // per node the injection and ejection links.
  const std::int32_t n = shape_.node_count();
  inter_link_.assign(static_cast<std::size_t>(n) * 4, -1);
  for (std::int32_t node = 0; node < n; ++node) {
    for (Port port : {kEast, kWest, kNorth, kSouth}) {
      const std::int32_t nbr = shape_.neighbor(node, port);
      if (nbr < 0) continue;
      inter_link_[static_cast<std::size_t>(node) * 4 + port] =
          bt_.register_link(LinkInfo{LinkKind::kInterRouter, node, nbr, port});
    }
  }
  injection_link_.reserve(static_cast<std::size_t>(n));
  ejection_link_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t node = 0; node < n; ++node) {
    injection_link_.push_back(
        bt_.register_link(LinkInfo{LinkKind::kInjection, node, node, -1}));
    ejection_link_.push_back(
        bt_.register_link(LinkInfo{LinkKind::kEjection, node, node, kLocal}));
  }
  crossings_.resize(bt_.link_count());
}

std::string AnalyticalEngine::unsupported_reason(const NocConfig& cfg) {
  // The zero-load model assumes a source can stream a packet's flits on
  // consecutive cycles. With fewer credits than the credit round trip
  // (2 * channel_latency), the wormhole loop throttles even an otherwise
  // empty network, and zero-load timing is no longer the realized timing.
  if (cfg.vc_buffer_depth < 2 * static_cast<std::int32_t>(cfg.channel_latency))
    return "analytical model needs vc_buffer_depth >= 2 * channel_latency "
           "(credit round trip); got depth " +
           std::to_string(cfg.vc_buffer_depth) + " with latency " +
           std::to_string(cfg.channel_latency);
  return {};
}

std::uint64_t AnalyticalEngine::inject(std::uint64_t cycle, std::int32_t src,
                                       std::int32_t dst,
                                       const std::vector<BitVec>& payloads) {
  if (ran_)
    throw std::logic_error("AnalyticalEngine::inject: run() already called");
  const std::int32_t nodes = shape_.node_count();
  if (src < 0 || src >= nodes)
    throw std::invalid_argument("AnalyticalEngine::inject: src node " +
                                std::to_string(src) + " outside mesh of " +
                                std::to_string(nodes) + " nodes");
  if (dst < 0 || dst >= nodes)
    throw std::invalid_argument("AnalyticalEngine::inject: dst node " +
                                std::to_string(dst) + " outside mesh of " +
                                std::to_string(nodes) + " nodes");
  if (src == dst && !cfg_.allow_self_traffic)
    throw std::invalid_argument(
        "AnalyticalEngine::inject: src == dst (" + std::to_string(src) +
        ") but NocConfig::allow_self_traffic is off");
  if (payloads.empty())
    throw std::invalid_argument(
        "AnalyticalEngine::inject: packet needs >= 1 flit");
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (payloads[i].width() != cfg_.flit_payload_bits)
      throw std::invalid_argument(
          "AnalyticalEngine::inject: payload " + std::to_string(i) + " is " +
          std::to_string(payloads[i].width()) + " bits wide, link carries " +
          std::to_string(cfg_.flit_payload_bits));
  }

  PacketRec rec;
  rec.inject_cycle = cycle;
  rec.dst = dst;
  rec.hops = shape_.manhattan(src, dst);
  rec.flits = static_cast<std::uint32_t>(payloads.size());
  rec.first = payloads.front();
  rec.last = payloads.back();
  for (std::size_t i = 1; i < payloads.size(); ++i)
    rec.intra_bt += static_cast<std::uint64_t>(
        payloads[i - 1].transitions_to(payloads[i]));

  // Walk the route, recording one crossing per physical link. Flit f of
  // this packet pushes onto hop h's link at cycle T + h*L + f.
  const auto idx = static_cast<std::uint32_t>(packets_.size());
  const std::uint64_t latency = cfg_.channel_latency;
  std::uint64_t hop = 0;
  const auto cross = [&](std::int32_t link_id) {
    crossings_[static_cast<std::size_t>(link_id)].push_back(
        Crossing{cycle + hop * latency, idx});
    ++hop;
  };
  cross(injection_link_[static_cast<std::size_t>(src)]);
  for (std::int32_t at = src; at != dst;) {
    const Port port = route_dimension_ordered(shape_, cfg_.routing, at, dst);
    cross(inter_link_[static_cast<std::size_t>(at) * 4 + port]);
    at = shape_.neighbor(at, port);
  }
  cross(ejection_link_[static_cast<std::size_t>(dst)]);

  ++stats_.packets_injected;
  stats_.flits_injected += rec.flits;
  packets_.push_back(std::move(rec));
  return idx;
}

WireOrder AnalyticalEngine::wire_order() const {
  if (!ran_ || !congestion_free_)
    throw std::logic_error(
        "AnalyticalEngine::wire_order: run() did not prove the schedule "
        "congestion-free");
  WireOrderRecorder rec(crossings_.size());
  for (const PacketRec& p : packets_) rec.add_packet(p.flits);
  for (std::size_t link = 0; link < crossings_.size(); ++link)
    for (const Crossing& c : crossings_[link])
      for (std::uint32_t f = 0; f < packets_[c.packet].flits; ++f)
        rec.push(static_cast<std::int32_t>(link), c.packet, f);
  return rec.finish(bt_, cfg_);
}

bool AnalyticalEngine::evaluate_link(std::size_t link, LinkAccumulator& acc,
                                     std::string& detail) {
  // Each link is evaluated by exactly one thread, which owns its crossing
  // list; it stays sorted for wire_order().
  auto& crossings = crossings_[link];
  std::sort(crossings.begin(), crossings.end(),
            [](const Crossing& a, const Crossing& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.packet < b.packet;
            });
  bool free = true;
  std::uint64_t busy_until = 0;  // first cycle the wire is free again
  for (const Crossing& c : crossings) {
    const PacketRec& p = packets_[c.packet];
    if (&c != crossings.data() && c.start < busy_until && free) {
      free = false;
      const LinkInfo& info = bt_.link_info(static_cast<std::int32_t>(link));
      detail = "link " + std::to_string(link) + " (" + to_string(info.kind) +
               " " + std::to_string(info.src) + " -> " +
               std::to_string(info.dst) + ") still busy at cycle " +
               std::to_string(c.start) + "; schedule is not congestion-free";
    }
    busy_until = c.start + p.flits;
    acc.observe_packet(p.first, p.last, p.intra_bt, p.flits);
  }
  return free;
}

bool AnalyticalEngine::run(unsigned threads) {
  if (ran_) throw std::logic_error("AnalyticalEngine::run: already ran");
  ran_ = true;
  contention_detail_ = unsupported_reason(cfg_);

  // Per-link replay, partitioned across threads; each link is owned by
  // exactly one private accumulator, absorbed serially in link-id order so
  // totals are independent of the thread count.
  const std::size_t links = bt_.link_count();
  std::vector<LinkAccumulator> accs(links,
                                    LinkAccumulator(cfg_.flit_payload_bits));
  std::vector<std::string> details(links);
  std::vector<std::uint8_t> link_free(links, 1);
  const auto sweep = [&](std::size_t begin, std::size_t end) {
    for (std::size_t link = begin; link < end; ++link)
      link_free[link] = evaluate_link(link, accs[link], details[link]) ? 1 : 0;
  };
  const unsigned workers =
      std::max(1u, std::min(threads, static_cast<unsigned>(links)));
  if (workers <= 1) {
    sweep(0, links);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      const std::size_t begin = links * w / workers;
      const std::size_t end = links * (w + 1) / workers;
      pool.emplace_back(sweep, begin, end);
    }
    for (auto& t : pool) t.join();
  }
  bool congestion_free = contention_detail_.empty();
  for (std::size_t link = 0; link < links; ++link) {
    bt_.absorb(static_cast<std::int32_t>(link), accs[link]);
    if (!link_free[link] && congestion_free) {
      congestion_free = false;
      contention_detail_ = details[link];
    }
  }

  // Zero-load transport stats. A packet injected at T with D hops and F
  // flits is delivered (tail reassembled at the destination NI) at
  // T + (D+2)*L + F - 1; the network goes idle — the run_until_idle cycle
  // count — one cycle after the ejection credit is consumed, at
  // T + (D+3)*L + F. Deliveries feed the Welford accumulators in the
  // cycle engines' order: by delivery cycle, then destination node (NIs
  // step in node order within a cycle).
  const std::uint64_t latency = cfg_.channel_latency;
  std::vector<std::uint32_t> order(packets_.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto delivery = [&](std::uint32_t i) {
    const PacketRec& p = packets_[i];
    return p.inject_cycle +
           (static_cast<std::uint64_t>(p.hops) + 2) * latency + p.flits - 1;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const std::uint64_t da = delivery(a), db = delivery(b);
                     if (da != db) return da < db;
                     return packets_[a].dst < packets_[b].dst;
                   });
  cycle_ = 0;
  for (const std::uint32_t i : order) {
    const PacketRec& p = packets_[i];
    ++stats_.packets_delivered;
    stats_.flits_delivered += p.flits;
    stats_.packet_latency.add(
        static_cast<double>(delivery(i) - p.inject_cycle));
    stats_.packet_hops.add(static_cast<double>(p.hops));
    cycle_ = std::max(cycle_, p.inject_cycle +
                                  (static_cast<std::uint64_t>(p.hops) + 3) *
                                      latency +
                                  p.flits);
  }
  stats_.cycles = cycle_;
  // The whole run is one exact clock jump: nothing was stepped.
  stats_.sim.idle_cycles_skipped = cycle_;
  congestion_free_ = congestion_free;
  return congestion_free;
}

}  // namespace nocbt::noc
