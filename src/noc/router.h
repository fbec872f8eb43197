#pragma once
// Input-queued virtual-channel wormhole router.
//
// Pipeline per cycle (single-cycle router, links add `channel_latency`):
//   1. credit ingest        — replenish per-output-VC credit counters
//   2. flit ingest          — channel -> per-VC input FIFO
//   3. route computation    — head flit picks an output port (X-Y / Y-X)
//   4. VC allocation        — head flit acquires a free downstream VC
//   5. switch allocation    — separable input-first round-robin allocator
//   6. switch traversal     — winners cross to the output channel, a credit
//                             returns upstream, tail flits release the VC
//
// VC reuse is relaxed (the downstream VC is released when the tail is
// *sent*); FIFO order per link per VC keeps packets well-formed downstream.
//
// The allocators work on bit masks (noc/arbiter.h) that follow each VC's
// state as it changes, instead of rescanning every VC every cycle: the VCs
// waiting to be routed; per output port, the (in_port * num_vcs + vc)
// bidders waiting for one of its VCs, and its free downstream VCs; per
// input port, its VCs that hold an output VC. A stage with an empty mask
// costs one test, and idle() is a counter check. Masks span as many 64-bit
// words as their bidders need, so num_vcs has no upper bound.
//
// Hot-path storage is allocation-free in steady state: VC input FIFOs are
// fixed rings sized by `vc_buffer_depth`, and the masks are members sized
// once in the constructor.

#include <array>
#include <cstdint>
#include <vector>

#include "noc/arbiter.h"
#include "noc/channel.h"
#include "noc/flit.h"
#include "noc/flit_ring.h"
#include "noc/noc_config.h"
#include "noc/routing.h"

namespace nocbt::noc {

class Router {
 public:
  Router(const NocConfig& cfg, const MeshShape& shape, std::int32_t id);

  /// Wire an input port: flits arrive on `in_flits`; credits for freed
  /// buffer slots are returned upstream on `credit_return`.
  void connect_input(Port port, Channel<Flit>* in_flits,
                     Channel<Credit>* credit_return);

  /// Wire an output port: flits depart on `out_flits`; downstream credits
  /// arrive on `credit_in`.
  void connect_output(Port port, Channel<Flit>* out_flits,
                      Channel<Credit>* credit_in);

  /// Advance one cycle. Returns true while the router holds state that can
  /// make progress without external input (any VC non-idle or non-empty) —
  /// i.e. whether the active-set engine must step it again next cycle even
  /// if no flit or credit arrives.
  bool step(std::uint64_t cycle);

  /// True when no flit is buffered and every VC is idle.
  [[nodiscard]] bool idle() const noexcept { return live_vcs_ == 0; }

  [[nodiscard]] std::int32_t id() const noexcept { return id_; }

  /// Total flits currently buffered (for diagnostics).
  [[nodiscard]] std::size_t buffered_flits() const noexcept;

 private:
  /// A VC's stage is which mask holds it: routing_ (head to route), its
  /// output's `waiting` (routed, no output VC yet) or its input's `active`
  /// (out_vc held until the tail leaves). In none of them it is idle, and
  /// then its buffer is empty and out_vc is -1.
  struct VcState {
    Port out_port = kLocal;
    std::int32_t out_vc = -1;
    FlitRing buffer;

    explicit VcState(std::size_t depth) : buffer(depth) {}
  };

  struct InputUnit {
    Channel<Flit>* in = nullptr;
    Channel<Credit>* credit_return = nullptr;
    std::vector<VcState> vcs;
    std::vector<std::uint64_t> active;  // VCs holding an output VC
    RoundRobinArbiter vc_arb;  // picks which VC bids for the switch

    InputUnit(std::size_t num_vcs, std::size_t depth)
        : active(mask_words(num_vcs)), vc_arb(num_vcs) {
      vcs.reserve(num_vcs);
      for (std::size_t v = 0; v < num_vcs; ++v) vcs.emplace_back(depth);
    }
  };

  struct OutputUnit {
    Channel<Flit>* out = nullptr;
    Channel<Credit>* credit_in = nullptr;
    std::vector<std::int32_t> credits;   // per downstream VC
    std::vector<std::uint64_t> free_vcs;  // downstream VCs no packet owns
    std::vector<std::uint64_t> waiting;   // (in_port * V + vc) bidders
    std::uint64_t nominees = 0;  // input ports whose switch bid is here
    RoundRobinArbiter vc_alloc_arb;  // among (in_port * V + vc) bidders
    RoundRobinArbiter switch_arb;    // among input ports

    OutputUnit(std::size_t num_vcs, std::int32_t depth);
  };

  void ingest_credits(std::uint64_t cycle);
  void ingest_flits(std::uint64_t cycle);
  void compute_routes();
  void allocate_vcs();
  void allocate_and_traverse_switch(std::uint64_t cycle);
  /// After a tail departs, restart the VC state machine if another packet's
  /// head is already queued behind it.
  void refresh_vc(std::size_t in_port, std::size_t v);

  const NocConfig& cfg_;
  const MeshShape& shape_;
  std::int32_t id_;
  std::size_t num_vcs_;
  std::vector<InputUnit> inputs_;    // indexed by Port
  std::vector<OutputUnit> outputs_;  // indexed by Port

  std::vector<std::uint64_t> routing_;   // (in_port * V + vc) heads to route
  std::vector<std::uint64_t> requests_;  // switch bids of one input port
  std::size_t live_vcs_ = 0;     // VCs not idle (a non-empty VC is not idle)
  std::size_t waiting_vcs_ = 0;  // bits set across every output's waiting
  std::array<std::int32_t, kNumPorts> nominee_{};  // chosen VC per input port
};

}  // namespace nocbt::noc
