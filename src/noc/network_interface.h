#pragma once
// Network interface (NI): the bridge between a node (PE or memory
// controller) and its router's local port.
//
// Injection side: an unbounded source queue of packets; up to `num_vcs`
// packets are in flight concurrently, one per virtual channel, with
// credit-based backpressure toward the router's local input port.
// Ejection side: flits are drained from the router's local output port,
// reassembled in one slot per ejection VC, and delivered to the node's
// sink callback; a credit returns to the router for every drained flit. A
// VC carries one packet from head to tail, and its channel delivers that
// tail before the next packet's head, so a slot never holds two packets.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "noc/arbiter.h"
#include "noc/channel.h"
#include "noc/flit.h"
#include "noc/noc_config.h"

namespace nocbt::noc {

class NetworkInterface {
 public:
  using PacketSink = std::function<void(Packet&&, std::uint64_t cycle)>;

  NetworkInterface(const NocConfig& cfg, std::int32_t node);

  /// Wire the injection path (NI -> router local input).
  void connect_injection(Channel<Flit>* to_router,
                         Channel<Credit>* credit_from_router);
  /// Wire the ejection path (router local output -> NI).
  void connect_ejection(Channel<Flit>* from_router,
                        Channel<Credit>* credit_to_router);

  /// Install the delivery callback for reassembled packets.
  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Enqueue a packet for injection (unbounded source queue).
  void enqueue(Packet&& packet) { source_queue_.push_back(std::move(packet)); }

  /// Advance one cycle: accept credits, start queued packets on free VCs,
  /// send at most one flit, drain and reassemble arriving flits. Returns
  /// true while the NI holds state (queued packets, streaming VCs, or
  /// half-reassembled packets) — i.e. whether the active-set engine must
  /// step it again next cycle even if nothing arrives from the router.
  bool step(std::uint64_t cycle);

  /// True when nothing is queued, in flight, or half-reassembled.
  [[nodiscard]] bool idle() const noexcept;

  /// Packets waiting in the source queue (not yet assigned a VC).
  [[nodiscard]] std::size_t backlog() const noexcept {
    return source_queue_.size();
  }

  [[nodiscard]] std::int32_t node() const noexcept { return node_; }

 private:
  struct InjectionVc {
    bool busy = false;
    Packet packet;
    std::size_t next_flit = 0;
    std::int32_t credits;
  };

  void ingest_credits(std::uint64_t cycle);
  void assign_packets();
  void send_one_flit(std::uint64_t cycle);
  void drain_ejection(std::uint64_t cycle);

  const NocConfig& cfg_;
  std::int32_t node_;

  std::deque<Packet> source_queue_;
  std::vector<InjectionVc> inj_vcs_;
  std::vector<std::uint64_t> inj_requests_;  ///< per-cycle request mask
  RoundRobinArbiter inj_arb_;
  std::int32_t sticky_vc_ = -1;  ///< VC of the packet currently streaming
  Channel<Flit>* to_router_ = nullptr;
  Channel<Credit>* credit_from_router_ = nullptr;

  Channel<Flit>* from_router_ = nullptr;
  Channel<Credit>* credit_to_router_ = nullptr;
  std::vector<Packet> reassembly_;  ///< one slot per ejection VC
  std::size_t reassembling_ = 0;    ///< slots holding a partial packet
  PacketSink sink_;
};

}  // namespace nocbt::noc
