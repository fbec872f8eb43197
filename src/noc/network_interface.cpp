#include "noc/network_interface.h"

#include <stdexcept>
#include <utility>

namespace nocbt::noc {

NetworkInterface::NetworkInterface(const NocConfig& cfg, std::int32_t node)
    : cfg_(cfg), node_(node), inj_arb_(static_cast<std::size_t>(cfg.num_vcs)) {
  inj_vcs_.resize(static_cast<std::size_t>(cfg.num_vcs));
  for (auto& vc : inj_vcs_) vc.credits = cfg.vc_buffer_depth;
  inj_requests_.resize(mask_words(inj_vcs_.size()));
  reassembly_.resize(static_cast<std::size_t>(cfg.num_vcs));
}

void NetworkInterface::connect_injection(Channel<Flit>* to_router,
                                         Channel<Credit>* credit_from_router) {
  to_router_ = to_router;
  credit_from_router_ = credit_from_router;
}

void NetworkInterface::connect_ejection(Channel<Flit>* from_router,
                                        Channel<Credit>* credit_to_router) {
  from_router_ = from_router;
  credit_to_router_ = credit_to_router;
}

bool NetworkInterface::step(std::uint64_t cycle) {
  ingest_credits(cycle);
  assign_packets();
  send_one_flit(cycle);
  drain_ejection(cycle);
  return !idle();
}

void NetworkInterface::ingest_credits(std::uint64_t cycle) {
  if (!credit_from_router_) return;
  while (auto credit = credit_from_router_->pop_ready(cycle)) {
    auto& vc = inj_vcs_[static_cast<std::size_t>(credit->vc)];
    ++vc.credits;
    if (vc.credits > cfg_.vc_buffer_depth)
      throw std::logic_error("NI: credit overflow (protocol bug)");
  }
}

void NetworkInterface::assign_packets() {
  for (auto& vc : inj_vcs_) {
    if (vc.busy || source_queue_.empty()) continue;
    vc.packet = std::move(source_queue_.front());
    source_queue_.pop_front();
    vc.next_flit = 0;
    vc.busy = true;
  }
}

void NetworkInterface::send_one_flit(std::uint64_t cycle) {
  if (!to_router_) return;
  bool any = false;
  for (std::size_t v = 0; v < inj_vcs_.size(); ++v) {
    if (v % 64 == 0) inj_requests_[v / 64] = 0;
    if (inj_vcs_[v].busy && inj_vcs_[v].credits > 0) {
      set_bit(inj_requests_, v);
      any = true;
    }
  }
  if (!any) return;
  // Packet-serial injection: keep draining the in-progress packet while it
  // can make progress (a memory controller streams one packet at a time,
  // and contiguous flits preserve the transmission ordering the technique
  // relies on). Other VCs only get the link when the sticky one stalls.
  std::int32_t winner = -1;
  if (sticky_vc_ >= 0 &&
      test_bit(inj_requests_, static_cast<std::size_t>(sticky_vc_)))
    winner = sticky_vc_;
  else
    winner = inj_arb_.arbitrate(inj_requests_);
  if (winner < 0) return;
  sticky_vc_ = winner;

  auto& vc = inj_vcs_[static_cast<std::size_t>(winner)];
  const std::size_t total = vc.packet.payloads.size();
  const std::size_t i = vc.next_flit;

  Flit flit;
  flit.packet_id = vc.packet.id;
  flit.src = vc.packet.src;
  flit.dst = vc.packet.dst;
  flit.vc = winner;
  flit.seq = static_cast<std::uint32_t>(i);
  flit.num_flits = static_cast<std::uint32_t>(total);
  flit.inject_cycle = vc.packet.inject_cycle;
  // Move, don't copy: the packet is discarded once its last flit leaves, so
  // handing the payload's heap storage to the flit eliminates the one
  // per-flit allocation on the injection path.
  flit.payload = std::move(vc.packet.payloads[i]);
  if (total == 1)
    flit.kind = FlitKind::kHeadTail;
  else if (i == 0)
    flit.kind = FlitKind::kHead;
  else if (i + 1 == total)
    flit.kind = FlitKind::kTail;
  else
    flit.kind = FlitKind::kBody;

  --vc.credits;
  to_router_->push(cycle, std::move(flit));
  ++vc.next_flit;
  if (vc.next_flit == total) {
    vc.busy = false;
    vc.packet = Packet{};
    sticky_vc_ = -1;
  }
}

void NetworkInterface::drain_ejection(std::uint64_t cycle) {
  if (!from_router_) return;
  while (auto flit = from_router_->pop_ready(cycle)) {
    if (credit_to_router_) credit_to_router_->push(cycle, Credit{flit->vc});

    Packet& pkt = reassembly_[static_cast<std::size_t>(flit->vc)];
    if (pkt.payloads.empty()) {
      pkt.id = flit->packet_id;
      pkt.src = flit->src;
      pkt.dst = flit->dst;
      pkt.inject_cycle = flit->inject_cycle;
      pkt.payloads.resize(flit->num_flits);
      ++reassembling_;
    }
    pkt.payloads[flit->seq] = std::move(flit->payload);

    if (is_tail(flit->kind)) {
      pkt.eject_cycle = cycle;
      pkt.hops = flit->hops;
      Packet done = std::exchange(pkt, Packet{});
      --reassembling_;
      if (sink_) sink_(std::move(done), cycle);
    }
  }
}

bool NetworkInterface::idle() const noexcept {
  if (!source_queue_.empty() || reassembling_ != 0) return false;
  for (const auto& vc : inj_vcs_)
    if (vc.busy) return false;
  return true;
}

}  // namespace nocbt::noc
