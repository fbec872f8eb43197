#include "noc/analytical_engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "noc/network.h"

namespace nocbt::noc {

AnalyticalEngine::AnalyticalEngine(const NocConfig& cfg)
    : cfg_(cfg), shape_(cfg.rows, cfg.cols), links_(mesh_links(shape_)) {
  cfg_.validate();
  stats_.sim.engine = SimEngine::kAnalytical;
  const auto n = static_cast<std::size_t>(shape_.node_count());
  output_link_.assign(n * kNumPorts, -1);
  injection_link_.assign(n, -1);
  for (std::size_t id = 0; id < links_.size(); ++id) {
    const LinkInfo& info = links_[id];
    const auto node = static_cast<std::size_t>(info.src);
    if (info.kind == LinkKind::kInjection)
      injection_link_[node] = static_cast<std::int32_t>(id);
    else
      output_link_[node * kNumPorts +
                   static_cast<std::size_t>(info.src_port)] =
          static_cast<std::int32_t>(id);
  }
  payloads_.words_per_flit = (cfg_.flit_payload_bits + 63) / 64;
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
  check_injection(cfg_, src, dst, payloads, "AnalyticalEngine::inject");

  PacketRec rec;
  rec.inject_cycle = cycle;
  rec.dst = dst;
  rec.hops = shape_.manhattan(src, dst);
  rec.flits = static_cast<std::uint32_t>(payloads.size());
  for (const BitVec& flit : payloads)
    payloads_.words.insert(payloads_.words.end(), flit.words().begin(),
                           flit.words().end());
  payloads_.packet_begin.push_back(payloads_.packet_begin.back() + rec.flits);

  // Walk the route, recording one crossing per physical link. Flit f of
  // this packet pushes onto hop h's link at cycle T + h*L + f.
  const auto idx = static_cast<std::uint32_t>(packets_.size());
  const std::uint64_t latency = cfg_.channel_latency;
  std::uint64_t hop = 0;
  const auto cross = [&](std::int32_t link_id) {
    crossings_.push_back(Crossing{cycle + hop * latency, idx, link_id});
    ++hop;
  };
  cross(injection_link_[static_cast<std::size_t>(src)]);
  for (std::int32_t at = src;;) {
    const Port port = route_dimension_ordered(shape_, cfg_.routing, at, dst);
    cross(output_link_[static_cast<std::size_t>(at) * kNumPorts + port]);
    if (port == kLocal) break;
    at = shape_.neighbor(at, port);
  }

  ++stats_.packets_injected;
  stats_.flits_injected += rec.flits;
  packets_.push_back(rec);
  return idx;
}

WireOrder AnalyticalEngine::wire_order() const {
  if (!ran_ || !congestion_free_)
    throw std::logic_error(
        "AnalyticalEngine::wire_order: run() did not prove the schedule "
        "congestion-free");
  return order();
}

WireOrder AnalyticalEngine::order() const {
  WireOrderRecorder rec(links_, cfg_.flit_payload_bits);
  for (const PacketRec& p : packets_) rec.add_packet(p.flits);
  // Grouped by link id, so links are visited in id order.
  for (const Crossing& c : crossings_)
    for (std::uint32_t f = 0; f < packets_[c.packet].flits; ++f)
      rec.push(c.link, c.packet, f);
  return rec.finish();
}

BtRecorder AnalyticalEngine::bt() const {
  return score_wire_order(order(), payloads_);
}

bool AnalyticalEngine::sort_link(std::size_t link, std::string& detail) {
  const auto first = crossings_.begin() +
                     static_cast<std::ptrdiff_t>(link_begin_[link]);
  const auto last = crossings_.begin() +
                    static_cast<std::ptrdiff_t>(link_begin_[link + 1]);
  std::sort(first, last, [](const Crossing& a, const Crossing& b) {
    return a.start != b.start ? a.start < b.start : a.packet < b.packet;
  });
  std::uint64_t busy_until = 0;  // first cycle the wire is free again
  for (auto it = first; it != last; ++it) {
    const Crossing& c = *it;
    if (it != first && c.start < busy_until) {
      const LinkInfo& info = links_[link];
      detail = "link " + std::to_string(link) + " (" + to_string(info.kind) +
               " " + std::to_string(info.src) + " -> " +
               std::to_string(info.dst) + ") still busy at cycle " +
               std::to_string(c.start) + "; schedule is not congestion-free";
      return false;
    }
    busy_until = c.start + packets_[c.packet].flits;
  }
  return true;
}

bool AnalyticalEngine::run() {
  if (ran_) throw std::logic_error("AnalyticalEngine::run: already ran");
  ran_ = true;
  contention_detail_ = unsupported_reason(cfg_);

  // Group the crossings by link id (a stable counting sort), then sort
  // every link, in link-id order; the first clashing link is the one
  // reported.
  link_begin_.assign(links_.size() + 1, 0);
  for (const Crossing& c : crossings_)
    ++link_begin_[static_cast<std::size_t>(c.link) + 1];
  std::partial_sum(link_begin_.begin(), link_begin_.end(),
                   link_begin_.begin());
  std::vector<Crossing> grouped(crossings_.size());
  std::vector<std::size_t> next(link_begin_.begin(), link_begin_.end() - 1);
  for (const Crossing& c : crossings_)
    grouped[next[static_cast<std::size_t>(c.link)]++] = c;
  crossings_ = std::move(grouped);

  bool congestion_free = contention_detail_.empty();
  for (std::size_t link = 0; link < links_.size(); ++link) {
    if (link_begin_[link + 1] - link_begin_[link] < 2) continue;  // no clash
    std::string detail;
    if (!sort_link(link, detail) && congestion_free) {
      congestion_free = false;
      contention_detail_ = std::move(detail);
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
  std::vector<std::uint32_t> by_delivery(packets_.size());
  std::iota(by_delivery.begin(), by_delivery.end(), 0u);
  const auto delivery = [&](std::uint32_t i) {
    const PacketRec& p = packets_[i];
    return p.inject_cycle +
           (static_cast<std::uint64_t>(p.hops) + 2) * latency + p.flits - 1;
  };
  std::stable_sort(by_delivery.begin(), by_delivery.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const std::uint64_t da = delivery(a), db = delivery(b);
                     if (da != db) return da < db;
                     return packets_[a].dst < packets_[b].dst;
                   });
  cycle_ = 0;
  for (const std::uint32_t i : by_delivery) {
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
