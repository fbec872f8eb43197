#pragma once
// Network: the assembled NoC.
//
// Owns the mesh of routers, all flit/credit channels, one network interface
// per node, the BT recorder tapping every physical link, and the transport
// statistics. This is the public entry point of the NoC library:
//
//   NocConfig cfg;                       // 4x4, 4 VCs, XY, 512-bit links
//   Network net(cfg);
//   net.set_sink(dst, [](Packet&& p, uint64_t cycle) { ... });
//   net.inject(src, dst, payloads);
//   net.run_until_idle();
//   net.bt().total();                    // accumulated bit transitions
//
// Two step-loop engines share the identical component models
// (NocConfig::engine):
//
//   kActiveSet (default) — event-skipping worklist. step() visits only the
//   components registered as able to make progress: a component stays on
//   the worklist while its step() reports remaining internal state, and
//   quiescent components are woken by their channels exactly at the cycle
//   a pushed flit/credit arrives (a small timing wheel holds future
//   wakes). idle() is an O(1) check of the worklist and wheel counters.
//
//   kFullScan — the retained naive reference: every NI and router steps
//   every cycle, idle() scans the whole mesh. Differential suites pin the
//   active-set engine byte-identical (cycles, BT, delivery order, stats)
//   against it.
//
// Skipping is exact, not approximate: a skipped component is one whose
// step() would have been a no-op (all cross-component communication rides
// channels with >= 1 cycle latency, so a component with no internal state
// and no arriving item cannot act), and per-cycle component order is kept
// sorted (all NIs in node order, then all routers) so even floating-point
// statistic accumulation order matches the full scan.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "noc/bt_recorder.h"
#include "noc/channel.h"
#include "noc/flit.h"
#include "noc/network_interface.h"
#include "noc/noc_config.h"
#include "noc/noc_stats.h"
#include "noc/router.h"
#include "noc/routing.h"
#include "noc/wire_order.h"

namespace nocbt::noc {

class Network : private ChannelWaker {
 public:
  using PacketSink = NetworkInterface::PacketSink;

  explicit Network(const NocConfig& cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Install a delivery callback for packets arriving at `node`.
  void set_sink(std::int32_t node, PacketSink sink);

  /// Submit a packet. Each payload must be exactly `flit_payload_bits` wide;
  /// the packet enters `src`'s source queue this cycle. Returns the packet id.
  std::uint64_t inject(std::int32_t src, std::int32_t dst,
                       std::vector<BitVec> payloads);

  /// Record every link's wire order (noc/wire_order.h) from here on. Off
  /// by default: it stores a byte or two per flit-hop. Must precede the
  /// first inject() (throws std::logic_error otherwise).
  void record_wire_order();

  /// The wire order recorded so far, moved out; recording stops. Throws
  /// std::logic_error unless record_wire_order() was called.
  [[nodiscard]] WireOrder take_wire_order();

  /// Advance the network by one cycle.
  void step();

  /// Step until no flit/credit/packet is anywhere in flight, or until
  /// `max_cycles` additional cycles have elapsed. Returns true if the
  /// network drained.
  bool run_until_idle(std::uint64_t max_cycles = 10'000'000);

  /// Advance the clock by `cycles` without stepping any component. Only
  /// legal while idle (throws std::logic_error otherwise): wires hold
  /// their state and no event can occur, so the jump is observationally
  /// exact — it lets sparse injection schedules skip dead time instead of
  /// grinding through millions of no-op steps.
  void advance_idle(std::uint64_t cycles);

  /// True when all routers, NIs and channels are empty. O(1) under the
  /// active-set engine; a full mesh scan under the full-scan reference.
  [[nodiscard]] bool idle() const noexcept;

  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }
  [[nodiscard]] const MeshShape& shape() const noexcept { return shape_; }
  [[nodiscard]] const NocConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] const BtRecorder& bt() const noexcept { return bt_; }
  [[nodiscard]] BtRecorder& bt() noexcept { return bt_; }
  [[nodiscard]] const NocStats& stats() const noexcept { return stats_; }

  /// Packets queued at `node`'s NI, not yet assigned an injection VC.
  [[nodiscard]] std::size_t injection_backlog(std::int32_t node) const;

  /// Total flits buffered inside routers (diagnostics / livelock checks).
  [[nodiscard]] std::size_t buffered_flits() const noexcept;

  /// Components (NIs + routers) currently on the active worklist. Always
  /// the full component count under the full-scan reference.
  [[nodiscard]] std::size_t active_components() const noexcept;

 private:
  void build();
  Channel<Flit>* new_flit_channel(const LinkInfo& info, std::int32_t consumer);
  Channel<Credit>* new_credit_channel(std::int32_t consumer);

  // ---- active-set engine ----
  /// ChannelWaker: schedule component `comp` to step at `cycle` (the
  /// arrival cycle of an item just pushed into one of its input channels).
  void wake(std::int32_t comp, std::uint64_t cycle) override;
  /// Put `src`'s NI on the worklist after an inject() — mid-step, the NI is
  /// slotted into the current cycle iff the full scan would still reach it.
  void activate_ni(std::int32_t node);
  void step_active();
  void step_full_scan();
  [[nodiscard]] bool idle_full_scan() const noexcept;

  NocConfig cfg_;
  MeshShape shape_;
  BtRecorder bt_;
  std::unique_ptr<WireOrderRecorder> wire_;  ///< set by record_wire_order()
  NocStats stats_;
  std::uint64_t cycle_ = 0;
  std::uint64_t next_packet_id_ = 0;

  std::deque<Router> routers_;
  std::deque<NetworkInterface> nis_;
  std::deque<Channel<Flit>> flit_channels_;
  std::deque<Channel<Credit>> credit_channels_;

  // Active-set state. Component ids: [0, n) = NI of node i, [n, 2n) =
  // router i, so a sorted worklist reproduces the full scan's "all NIs in
  // node order, then all routers" order exactly.
  bool active_engine_ = true;
  std::vector<std::int32_t> run_list_;   ///< components to step next step()
  std::vector<std::int32_t> next_list_;  ///< scratch: survivors of this step
  std::vector<std::uint8_t> scheduled_;  ///< comp is in run_list_/next_list_
  /// Timing wheel of future channel-arrival wakes, indexed by cycle modulo
  /// wheel size (channel_latency + 1 covers every reachable arrival).
  /// Entries may repeat a component; the merge into run_list_ dedupes.
  std::vector<std::vector<std::int32_t>> wheel_;
  std::size_t wheel_count_ = 0;  ///< total entries across all wheel slots
  bool stepping_ = false;        ///< inside step_active()'s component loop
  std::size_t run_pos_ = 0;      ///< index into run_list_ during a step
  std::int32_t current_comp_ = -1;  ///< component currently being stepped
};

}  // namespace nocbt::noc
