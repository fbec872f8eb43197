#include "noc/network.h"

#include <algorithm>
#include <stdexcept>

namespace nocbt::noc {

Network::Network(const NocConfig& cfg)
    : cfg_(cfg),
      shape_(cfg.rows, cfg.cols),
      bt_(cfg.bt_scope, cfg.flit_payload_bits),
      active_engine_(cfg.engine == SimEngine::kActiveSet) {
  cfg_.validate();
  if (cfg_.engine == SimEngine::kAnalytical)
    throw std::invalid_argument(
        "Network: SimEngine::kAnalytical has no cycle loop; run it through "
        "noc::AnalyticalEngine (or pick active | fullscan)");
  stats_.sim.engine = cfg_.engine;
  const std::size_t comps = 2 * static_cast<std::size_t>(shape_.node_count());
  scheduled_.assign(comps, 0);
  run_list_.reserve(comps);
  next_list_.reserve(comps);
  wheel_.resize(static_cast<std::size_t>(cfg_.channel_latency) + 1);
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
  for (std::int32_t i = 0; i < n; ++i) routers_.emplace_back(cfg_, shape_, i);
  for (std::int32_t i = 0; i < n; ++i) nis_.emplace_back(cfg_, i);

  // Inter-router links: one flit channel + one reverse credit channel per
  // directed adjacency. Flits are consumed by the downstream router;
  // returned credits by the upstream one.
  for (std::int32_t node = 0; node < n; ++node) {
    for (Port port : {kEast, kWest, kNorth, kSouth}) {
      const std::int32_t nbr = shape_.neighbor(node, port);
      if (nbr < 0) continue;
      Channel<Flit>* flits = new_flit_channel(
          LinkInfo{LinkKind::kInterRouter, node, nbr, port},
          router_comp(nbr));
      Channel<Credit>* credits = new_credit_channel(router_comp(node));
      routers_[node].connect_output(port, flits, credits);
      routers_[nbr].connect_input(opposite(port), flits, credits);
    }
  }

  // NI <-> router local-port links.
  for (std::int32_t node = 0; node < n; ++node) {
    Channel<Flit>* inj = new_flit_channel(
        LinkInfo{LinkKind::kInjection, node, node, -1}, router_comp(node));
    Channel<Credit>* inj_credits = new_credit_channel(node);
    nis_[node].connect_injection(inj, inj_credits);
    routers_[node].connect_input(kLocal, inj, inj_credits);

    Channel<Flit>* ej = new_flit_channel(
        LinkInfo{LinkKind::kEjection, node, node, kLocal}, node);
    Channel<Credit>* ej_credits = new_credit_channel(router_comp(node));
    routers_[node].connect_output(kLocal, ej, ej_credits);
    nis_[node].connect_ejection(ej, ej_credits);
  }
}

void Network::set_sink(std::int32_t node, PacketSink sink) {
  NocStats* stats = &stats_;
  nis_[node].set_sink(
      [stats, user = std::move(sink)](Packet&& packet, std::uint64_t cycle) {
        ++stats->packets_delivered;
        stats->flits_delivered += packet.payloads.size();
        stats->packet_latency.add(
            static_cast<double>(cycle - packet.inject_cycle));
        stats->packet_hops.add(static_cast<double>(packet.hops));
        if (user) user(std::move(packet), cycle);
      });
}

std::uint64_t Network::inject(std::int32_t src, std::int32_t dst,
                              std::vector<BitVec> payloads) {
  const std::int32_t nodes = shape_.node_count();
  if (src < 0 || src >= nodes)
    throw std::invalid_argument("Network::inject: src node " +
                                std::to_string(src) + " outside mesh of " +
                                std::to_string(nodes) + " nodes");
  if (dst < 0 || dst >= nodes)
    throw std::invalid_argument("Network::inject: dst node " +
                                std::to_string(dst) + " outside mesh of " +
                                std::to_string(nodes) + " nodes");
  if (src == dst && !cfg_.allow_self_traffic)
    throw std::invalid_argument(
        "Network::inject: src == dst (" + std::to_string(src) +
        ") but NocConfig::allow_self_traffic is off");
  if (payloads.empty())
    throw std::invalid_argument("Network::inject: packet needs >= 1 flit");
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (payloads[i].width() != cfg_.flit_payload_bits)
      throw std::invalid_argument(
          "Network::inject: payload " + std::to_string(i) + " is " +
          std::to_string(payloads[i].width()) + " bits wide, link carries " +
          std::to_string(cfg_.flit_payload_bits));
  }
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
  if (active_engine_) activate_ni(src);
  return id;
}

void Network::record_wire_order() {
  if (next_packet_id_ > 0)
    throw std::logic_error(
        "Network::record_wire_order: packets were already injected");
  wire_ = std::make_unique<WireOrderRecorder>(bt_.link_count());
}

WireOrder Network::take_wire_order() {
  if (!wire_)
    throw std::logic_error(
        "Network::take_wire_order: record_wire_order() was not called");
  WireOrder order = wire_->finish(bt_, cfg_);
  wire_.reset();
  return order;
}

void Network::wake(std::int32_t comp, std::uint64_t cycle) {
  // Arrival cycles land in (cycle_, cycle_ + channel_latency]; the wheel's
  // channel_latency + 1 slots map each reachable cycle to a distinct slot,
  // and the slot for the cycle being stepped has already been drained.
  wheel_[cycle % wheel_.size()].push_back(comp);
  ++wheel_count_;
}

void Network::activate_ni(std::int32_t node) {
  if (!stepping_) {
    // Between steps: schedule for the upcoming step() (this cycle).
    if (!scheduled_[static_cast<std::size_t>(node)]) {
      scheduled_[static_cast<std::size_t>(node)] = 1;
      run_list_.push_back(node);
    }
    return;
  }
  // Mid-step (a sink callback injected): the full scan visits NIs in node
  // order, so a target the scan has not reached yet must still run this
  // cycle; one at or before the current position runs next cycle.
  if (node > current_comp_) {
    if (!scheduled_[static_cast<std::size_t>(node)]) {
      scheduled_[static_cast<std::size_t>(node)] = 1;
      run_list_.insert(std::lower_bound(run_list_.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                run_pos_ + 1),
                                        run_list_.end(), node),
                       node);
    }
  } else {
    // Already stepped (or currently stepping) this cycle; the enqueue is
    // seen next cycle. The NI's own step-return usually keeps it active —
    // the wheel entry covers the race where it already reported idle.
    wake(node, cycle_ + 1);
  }
}

void Network::step() {
  if (active_engine_)
    step_active();
  else
    step_full_scan();
  ++cycle_;
  stats_.cycles = cycle_;
  ++stats_.sim.cycles_stepped;
}

void Network::step_full_scan() {
  for (auto& ni : nis_) ni.step(cycle_);
  for (auto& router : routers_) router.step(cycle_);
  stats_.sim.components_stepped +=
      2 * static_cast<std::uint64_t>(shape_.node_count());
}

void Network::step_active() {
  const std::int32_t n = shape_.node_count();

  // Merge wakes due this cycle into the worklist (deduped by the flag).
  auto& due = wheel_[cycle_ % wheel_.size()];
  for (const std::int32_t comp : due) {
    if (!scheduled_[static_cast<std::size_t>(comp)]) {
      scheduled_[static_cast<std::size_t>(comp)] = 1;
      run_list_.push_back(comp);
    }
  }
  wheel_count_ -= due.size();
  due.clear();

  // Sorted order reproduces the full scan: NIs (ids < n) in node order
  // first, then routers.
  std::sort(run_list_.begin(), run_list_.end());

  next_list_.clear();
  stepping_ = true;
  for (run_pos_ = 0; run_pos_ < run_list_.size(); ++run_pos_) {
    const std::int32_t comp = run_list_[run_pos_];
    current_comp_ = comp;
    const bool again = comp < n
                           ? nis_[comp].step(cycle_)
                           : routers_[comp - n].step(cycle_);
    if (again)
      next_list_.push_back(comp);  // keeps its scheduled_ flag
    else
      scheduled_[static_cast<std::size_t>(comp)] = 0;
  }
  stepping_ = false;
  current_comp_ = -1;

  stats_.sim.components_stepped += run_list_.size();
  stats_.sim.components_skipped +=
      2 * static_cast<std::uint64_t>(n) - run_list_.size();
  run_list_.swap(next_list_);
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
  if (active_engine_) return run_list_.empty() && wheel_count_ == 0;
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
  if (!active_engine_)
    return 2 * static_cast<std::size_t>(shape_.node_count());
  return run_list_.size();
}

}  // namespace nocbt::noc
