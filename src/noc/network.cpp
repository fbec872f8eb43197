#include "noc/network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

namespace nocbt::noc {

Network::Network(const NocConfig& cfg)
    : cfg_(cfg),
      shape_(cfg.rows, cfg.cols),
      bt_(cfg.flit_payload_bits),
      active_engine_(cfg.engine == SimEngine::kActiveSet) {
  cfg_.validate();
  if (cfg_.engine == SimEngine::kAnalytical)
    throw std::invalid_argument(
        "Network: SimEngine::kAnalytical has no cycle loop; run it through "
        "noc::AnalyticalEngine (or pick active | fullscan)");
  stats_.sim.engine = cfg_.engine;
  const std::size_t comps = 2 * static_cast<std::size_t>(shape_.node_count());
  due_.assign(mask_words(comps), 0);
  next_.assign(due_.size(), 0);
  wheel_bits_.assign(cfg_.channel_latency + std::size_t{1}, 0);
  wheel_.assign(wheel_bits_.size() * due_.size(), 0);
  if (!active_engine_)
    for (std::size_t comp = 0; comp < comps; ++comp) set_bit(due_, comp);
  build();
}

Channel<Flit>* Network::new_flit_channel(const LinkInfo& info,
                                         std::int32_t consumer) {
  flit_channels_.emplace_back(cfg_.channel_latency);
  Channel<Flit>* ch = &flit_channels_.back();
  const std::int32_t link_id = bt_.register_link(info);
  ch->set_observer([this, link_id](const Flit& flit) {
    bt_.observe(link_id, flit.payload);
    if (wire_) wire_->push(link_id, flit.packet_id, flit.seq);
  });
  if (active_engine_) ch->set_waker(this, consumer);
  return ch;
}

Channel<Credit>* Network::new_credit_channel(std::int32_t consumer) {
  credit_channels_.emplace_back(cfg_.channel_latency);
  Channel<Credit>* ch = &credit_channels_.back();
  if (active_engine_) ch->set_waker(this, consumer);
  return ch;
}

void Network::build() {
  const std::int32_t n = shape_.node_count();
  // Component ids for the waker: NI of node i is comp i, router i is n + i.
  const auto router_comp = [n](std::int32_t node) { return n + node; };
  routers_.reserve(static_cast<std::size_t>(n));
  nis_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) routers_.emplace_back(cfg_, shape_, i);
  for (std::int32_t i = 0; i < n; ++i) nis_.emplace_back(cfg_, i);
  sinks_.resize(static_cast<std::size_t>(n));
  // Every delivery is counted, then handed to the node's sink, if any.
  for (std::int32_t i = 0; i < n; ++i)
    nis_[i].set_sink([this, i](Packet&& packet, std::uint64_t cycle) {
      ++stats_.packets_delivered;
      stats_.flits_delivered += packet.payloads.size();
      stats_.packet_latency.add(
          static_cast<double>(cycle - packet.inject_cycle));
      stats_.packet_hops.add(static_cast<double>(packet.hops));
      if (const PacketSink& sink = sinks_[static_cast<std::size_t>(i)])
        sink(std::move(packet), cycle);
    });

  // One flit channel per link, in link-id order, plus a reverse credit
  // channel. Flits are consumed downstream, returned credits upstream.
  for (const LinkInfo& info : mesh_links(shape_)) {
    const std::int32_t node = info.src;
    switch (info.kind) {
      case LinkKind::kInterRouter: {
        const auto port = static_cast<Port>(info.src_port);
        Channel<Flit>* flits = new_flit_channel(info, router_comp(info.dst));
        Channel<Credit>* credits = new_credit_channel(router_comp(node));
        routers_[node].connect_output(port, flits, credits);
        routers_[info.dst].connect_input(opposite(port), flits, credits);
        break;
      }
      case LinkKind::kInjection: {
        Channel<Flit>* flits = new_flit_channel(info, router_comp(node));
        Channel<Credit>* credits = new_credit_channel(node);
        nis_[node].connect_injection(flits, credits);
        routers_[node].connect_input(kLocal, flits, credits);
        break;
      }
      case LinkKind::kEjection: {
        Channel<Flit>* flits = new_flit_channel(info, node);
        Channel<Credit>* credits = new_credit_channel(router_comp(node));
        routers_[node].connect_output(kLocal, flits, credits);
        nis_[node].connect_ejection(flits, credits);
        break;
      }
    }
  }
}

void Network::set_sink(std::int32_t node, PacketSink sink) {
  sinks_[static_cast<std::size_t>(node)] = std::move(sink);
}

void check_injection(const NocConfig& cfg, std::int32_t src,
                     std::int32_t dst, const std::vector<BitVec>& payloads,
                     const char* who) {
  const std::int32_t nodes = cfg.node_count();
  const auto fail = [who](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  for (const auto& [role, node] :
       {std::pair{"src", src}, std::pair{"dst", dst}})
    if (node < 0 || node >= nodes)
      fail(std::string(role) + " node " + std::to_string(node) +
           " outside mesh of " + std::to_string(nodes) + " nodes");
  if (src == dst && !cfg.allow_self_traffic)
    fail("src == dst (" + std::to_string(src) +
         ") but NocConfig::allow_self_traffic is off");
  if (payloads.empty()) fail("packet needs >= 1 flit");
  for (std::size_t i = 0; i < payloads.size(); ++i)
    if (payloads[i].width() != cfg.flit_payload_bits)
      fail("payload " + std::to_string(i) + " is " +
           std::to_string(payloads[i].width()) + " bits wide, link carries " +
           std::to_string(cfg.flit_payload_bits));
}

std::uint64_t Network::inject(std::int32_t src, std::int32_t dst,
                              std::vector<BitVec> payloads) {
  check_injection(cfg_, src, dst, payloads, "Network::inject");
  if (wire_) wire_->add_packet(payloads.size());
  Packet packet;
  packet.id = next_packet_id_++;
  packet.src = src;
  packet.dst = dst;
  packet.inject_cycle = cycle_;
  packet.payloads = std::move(payloads);
  ++stats_.packets_injected;
  stats_.flits_injected += packet.payloads.size();
  const std::uint64_t id = packet.id;
  nis_[src].enqueue(std::move(packet));
  // Mid-step (a sink callback injected), the scan visits NIs in node
  // order: one it has not reached yet steps this cycle, one at or before
  // it steps next cycle. Between steps current_comp_ is -1.
  if (active_engine_) set_bit(src > current_comp_ ? due_ : next_,
                              static_cast<std::size_t>(src));
  return id;
}

void Network::record_wire_order() {
  if (next_packet_id_ > 0)
    throw std::logic_error(
        "Network::record_wire_order: packets were already injected");
  wire_ = std::make_unique<WireOrderRecorder>(mesh_links(shape_),
                                              cfg_.flit_payload_bits);
}

WireOrder Network::take_wire_order() {
  if (!wire_)
    throw std::logic_error(
        "Network::take_wire_order: record_wire_order() was not called");
  WireOrder order = wire_->finish();
  wire_.reset();
  return order;
}

std::span<std::uint64_t> Network::wheel_slot(std::size_t slot) {
  return std::span(wheel_).subspan(slot * due_.size(), due_.size());
}

void Network::wake(std::int32_t comp, std::uint64_t cycle) {
  // The mask of the cycle being stepped was emptied when its step began.
  std::size_t s = wheel_now_ + static_cast<std::size_t>(cycle - cycle_);
  if (s >= wheel_bits_.size()) s -= wheel_bits_.size();
  const std::span<std::uint64_t> slot = wheel_slot(s);
  const auto bit = static_cast<std::size_t>(comp);
  if (test_bit(slot, bit)) return;
  set_bit(slot, bit);
  ++wheel_bits_[s];
}

void Network::step() {
  const auto n = static_cast<std::size_t>(shape_.node_count());
  if (wheel_bits_[wheel_now_] != 0) {
    const std::span<std::uint64_t> slot = wheel_slot(wheel_now_);
    for (std::size_t w = 0; w < due_.size(); ++w)
      due_[w] |= std::exchange(slot[w], 0);
    wheel_bits_[wheel_now_] = 0;
  }

  std::uint64_t stepped = 0;
  for (std::size_t w = 0; w < due_.size(); ++w) {
    // Re-read the word after each component: a sink's inject() may have
    // made a later NI due.
    for (std::uint64_t bits = due_[w]; bits != 0;) {
      const auto b = static_cast<unsigned>(std::countr_zero(bits));
      const std::size_t comp = w * 64 + b;
      current_comp_ = static_cast<std::int32_t>(comp);
      if (comp < n ? nis_[comp].step(cycle_) : routers_[comp - n].step(cycle_))
        set_bit(next_, comp);
      ++stepped;
      bits = due_[w] & (~std::uint64_t{1} << b);
    }
    if (active_engine_) due_[w] = 0;
  }
  current_comp_ = -1;
  // The full scan keeps every bit of due_ set and never reads next_.
  if (active_engine_) due_.swap(next_);

  stats_.sim.components_stepped += stepped;
  stats_.sim.components_skipped += 2 * n - stepped;
  if (++wheel_now_ == wheel_bits_.size()) wheel_now_ = 0;
  ++cycle_;
  stats_.cycles = cycle_;
  ++stats_.sim.cycles_stepped;
}

void Network::advance_idle(std::uint64_t cycles) {
  if (!idle())
    throw std::logic_error("Network::advance_idle: network is not idle");
  cycle_ += cycles;
  stats_.cycles = cycle_;
  stats_.sim.idle_cycles_skipped += cycles;
}

bool Network::run_until_idle(std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (idle()) return true;
    step();
  }
  return idle();
}

bool Network::idle() const noexcept {
  if (active_engine_)
    return std::all_of(wheel_bits_.begin(), wheel_bits_.end(),
                       [](std::size_t bits) { return bits == 0; }) &&
           !any_bit(due_);
  return idle_full_scan();
}

bool Network::idle_full_scan() const noexcept {
  for (const auto& router : routers_)
    if (!router.idle()) return false;
  for (const auto& ni : nis_)
    if (!ni.idle()) return false;
  for (const auto& ch : flit_channels_)
    if (!ch.empty()) return false;
  for (const auto& ch : credit_channels_)
    if (!ch.empty()) return false;
  return true;
}

std::size_t Network::injection_backlog(std::int32_t node) const {
  return nis_[static_cast<std::size_t>(node)].backlog();
}

std::size_t Network::buffered_flits() const noexcept {
  std::size_t total = 0;
  for (const auto& router : routers_) total += router.buffered_flits();
  return total;
}

std::size_t Network::active_components() const noexcept {
  std::size_t due = 0;
  for (const std::uint64_t word : due_)
    due += static_cast<std::size_t>(std::popcount(word));
  return due;
}

}  // namespace nocbt::noc
