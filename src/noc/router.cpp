#include "noc/router.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace nocbt::noc {

Router::OutputUnit::OutputUnit(std::size_t num_vcs, std::int32_t depth)
    : credits(num_vcs, depth),
      free_vcs(mask_words(num_vcs)),
      waiting(mask_words(num_vcs * kNumPorts)),
      vc_alloc_arb(num_vcs * kNumPorts),
      switch_arb(kNumPorts) {
  for (std::size_t v = 0; v < num_vcs; ++v) set_bit(free_vcs, v);
}

Router::Router(const NocConfig& cfg, const MeshShape& shape, std::int32_t id)
    : cfg_(cfg),
      shape_(shape),
      id_(id),
      num_vcs_(static_cast<std::size_t>(cfg.num_vcs)),
      routing_(mask_words(num_vcs_ * kNumPorts)),
      requests_(mask_words(num_vcs_)) {
  inputs_.reserve(kNumPorts);
  outputs_.reserve(kNumPorts);
  const auto depth = static_cast<std::size_t>(cfg.vc_buffer_depth);
  for (int p = 0; p < kNumPorts; ++p) {
    inputs_.emplace_back(num_vcs_, depth);
    outputs_.emplace_back(num_vcs_, cfg.vc_buffer_depth);
  }
}

void Router::connect_input(Port port, Channel<Flit>* in_flits,
                           Channel<Credit>* credit_return) {
  inputs_[port].in = in_flits;
  inputs_[port].credit_return = credit_return;
}

void Router::connect_output(Port port, Channel<Flit>* out_flits,
                            Channel<Credit>* credit_in) {
  outputs_[port].out = out_flits;
  outputs_[port].credit_in = credit_in;
}

bool Router::step(std::uint64_t cycle) {
  ingest_credits(cycle);
  ingest_flits(cycle);
  compute_routes();
  allocate_vcs();
  allocate_and_traverse_switch(cycle);
  return !idle();
}

void Router::ingest_credits(std::uint64_t cycle) {
  for (auto& out : outputs_) {
    if (!out.credit_in) continue;
    while (auto credit = out.credit_in->pop_ready(cycle)) {
      ++out.credits[credit->vc];
      if (out.credits[credit->vc] > cfg_.vc_buffer_depth)
        throw std::logic_error("Router: credit overflow (protocol bug)");
    }
  }
}

void Router::ingest_flits(std::uint64_t cycle) {
  for (std::size_t in_port = 0; in_port < kNumPorts; ++in_port) {
    InputUnit& in = inputs_[in_port];
    if (!in.in) continue;
    if (auto flit = in.in->pop_ready(cycle)) {
      const auto v = static_cast<std::size_t>(flit->vc);
      VcState& vc = in.vcs[v];
      if (vc.buffer.full())
        throw std::logic_error("Router: VC buffer overflow (protocol bug)");
      // Empty without an output VC: idle (a routing or waiting VC holds its
      // head flit; an active one holds out_vc).
      const bool was_idle = vc.buffer.empty() && vc.out_vc < 0;
      vc.buffer.push_back(std::move(*flit));
      if (was_idle) {
        if (!is_head(vc.buffer.front().kind))
          throw std::logic_error("Router: body flit on idle VC (protocol bug)");
        set_bit(routing_, in_port * num_vcs_ + v);
        ++live_vcs_;
      }
    }
  }
}

void Router::compute_routes() {
  for (std::size_t w = 0; w < routing_.size(); ++w) {
    for (std::uint64_t rest = std::exchange(routing_[w], 0); rest != 0;
         rest &= rest - 1) {
      const std::size_t bit =
          w * 64 + static_cast<std::size_t>(std::countr_zero(rest));
      VcState& vc = inputs_[bit / num_vcs_].vcs[bit % num_vcs_];
      vc.out_port = route_dimension_ordered(shape_, cfg_.routing, id_,
                                            vc.buffer.front().dst);
      set_bit(outputs_[vc.out_port].waiting, bit);
      ++waiting_vcs_;
    }
  }
}

void Router::allocate_vcs() {
  // One VC grant per output port per cycle; bidders are (in_port, in_vc)
  // pairs whose head flit has been routed to this output.
  if (waiting_vcs_ == 0) return;
  for (auto& out : outputs_) {
    if (!out.out || !any_bit(out.waiting)) continue;
    // Lowest-index free downstream VC. Without one the arbiter is not
    // consulted, so its pointer stays put.
    const std::size_t free_vc = first_bit(out.free_vcs);
    if (free_vc >= num_vcs_) continue;
    const auto winner = static_cast<std::size_t>(
        out.vc_alloc_arb.arbitrate(out.waiting));
    clear_bit(out.waiting, winner);
    --waiting_vcs_;
    const std::size_t in_port = winner / num_vcs_;
    const std::size_t in_vc = winner % num_vcs_;
    inputs_[in_port].vcs[in_vc].out_vc = static_cast<std::int32_t>(free_vc);
    clear_bit(out.free_vcs, free_vc);
    set_bit(inputs_[in_port].active, in_vc);
  }
}

void Router::allocate_and_traverse_switch(std::uint64_t cycle) {
  // Phase 1 (input arbitration): each input port nominates one VC that is
  // active, has a buffered flit, and holds a downstream credit. The
  // nomination advances the port's VC pointer even if the flit then loses
  // the switch.
  for (std::size_t in_port = 0; in_port < kNumPorts; ++in_port) {
    InputUnit& in = inputs_[in_port];
    nominee_[in_port] = -1;
    bool any = false;
    for (std::size_t w = 0; w < in.active.size(); ++w) {
      std::uint64_t bids = 0;
      for (std::uint64_t rest = in.active[w]; rest != 0; rest &= rest - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(rest));
        const VcState& vc = in.vcs[w * 64 + b];
        if (!vc.buffer.empty() &&
            outputs_[vc.out_port]
                    .credits[static_cast<std::size_t>(vc.out_vc)] > 0)
          bids |= std::uint64_t{1} << b;
      }
      requests_[w] = bids;
      any = any || bids != 0;
    }
    if (!any) continue;
    const std::int32_t v = in.vc_arb.arbitrate(requests_);
    nominee_[in_port] = v;
    outputs_[in.vcs[static_cast<std::size_t>(v)].out_port].nominees |=
        std::uint64_t{1} << in_port;
  }

  // Phase 2 (output arbitration): each output port picks one nominating
  // input port; the winner's flit traverses the crossbar this cycle.
  for (int out_port = 0; out_port < kNumPorts; ++out_port) {
    OutputUnit& out = outputs_[out_port];
    const std::uint64_t nominees = out.nominees;
    out.nominees = 0;
    if (!out.out || nominees == 0) continue;
    const auto winner_port = static_cast<std::size_t>(
        out.switch_arb.arbitrate(std::span(&nominees, 1)));

    InputUnit& in = inputs_[winner_port];
    const auto vc_index = static_cast<std::size_t>(nominee_[winner_port]);
    VcState& vc = in.vcs[vc_index];

    Flit flit = vc.buffer.pop_front();
    const bool tail = is_tail(flit.kind);
    const std::int32_t out_vc = vc.out_vc;

    flit.vc = out_vc;
    if (out_port != kLocal) ++flit.hops;
    --out.credits[static_cast<std::size_t>(out_vc)];
    out.out->push(cycle, std::move(flit));

    // A buffer slot freed: return a credit upstream for the input VC.
    if (in.credit_return)
      in.credit_return->push(cycle,
                             Credit{static_cast<std::int32_t>(vc_index)});

    if (tail) {
      // Relaxed reuse: the downstream VC is free once the tail is sent.
      set_bit(out.free_vcs, static_cast<std::size_t>(out_vc));
      refresh_vc(winner_port, vc_index);
    }
  }
}

std::size_t Router::buffered_flits() const noexcept {
  std::size_t total = 0;
  for (const auto& in : inputs_)
    for (const auto& vc : in.vcs) total += vc.buffer.size();
  return total;
}

void Router::refresh_vc(std::size_t in_port, std::size_t v) {
  VcState& vc = inputs_[in_port].vcs[v];
  clear_bit(inputs_[in_port].active, v);
  vc.out_vc = -1;
  if (vc.buffer.empty()) {
    --live_vcs_;
    return;
  }
  if (!is_head(vc.buffer.front().kind))
    throw std::logic_error("Router: stray body flit after tail");
  set_bit(routing_, in_port * num_vcs_ + v);
}

}  // namespace nocbt::noc
