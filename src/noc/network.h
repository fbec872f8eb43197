#pragma once
// Network: the assembled NoC.
//
// Owns the mesh of routers, all flit/credit channels (one per entry of
// mesh_links(), in link-id order), one network interface per node, the BT
// recorder tapping every physical link, and the transport statistics.
// This is the public entry point of the NoC library:
//
//   NocConfig cfg;                       // 4x4, 4 VCs, XY, 512-bit links
//   Network net(cfg);
//   net.set_sink(dst, [](Packet&& p, uint64_t cycle) { ... });
//   net.inject(src, dst, payloads);
//   net.run_until_idle();
//   net.bt().total();                    // accumulated bit transitions
//
// BT is charged per flit, as each flit is pushed onto a link. Replaying
// recorded payloads instead (noc/wire_order.h, as AnalyticalEngine does)
// would hold a whole run's flit words in memory, and this charge is the
// independent reference the replay is tested against.
//
// One step loop serves both cycle engines (NocConfig::engine). Component
// ids are [0, n) for the NI of node i and [n, 2n) for router i; bit i of
// a component mask is component i. step() visits the set bits of the due
// mask in ascending id order, so every cycle runs all NIs in node order,
// then all routers.
//
//   kActiveSet (default) — the due mask holds only the components that can
//   make progress: a component stays due while its step() reports
//   remaining internal state, and a quiescent one is woken by its channels
//   exactly at the cycle a pushed flit/credit arrives (a timing wheel of
//   channel_latency + 1 masks holds future wakes). idle() reads the
//   wheel's bit counts and tests the due mask.
//
//   kFullScan — the retained naive reference: the due mask holds every
//   component every cycle, and idle() scans the whole mesh. Differential
//   suites pin the active-set engine byte-identical (cycles, BT, delivery
//   order, stats) against it.
//
// Skipping is exact, not approximate: a skipped component is one whose
// step() would have been a no-op (all cross-component communication rides
// channels with >= 1 cycle latency, so a component with no internal state
// and no arriving item cannot act), and both engines step components in
// the same order, so even floating-point statistic accumulation matches.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
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

/// Throws std::invalid_argument, its message starting with `who`, unless a
/// packet of `payloads` from `src` to `dst` may enter a network configured
/// by `cfg`: both nodes inside the mesh, src != dst unless
/// allow_self_traffic, at least one flit, and every flit exactly
/// flit_payload_bits wide. Network::inject and AnalyticalEngine::inject
/// both call it.
void check_injection(const NocConfig& cfg, std::int32_t src,
                     std::int32_t dst, const std::vector<BitVec>& payloads,
                     const char* who);

class Network : private ChannelWaker {
 public:
  using PacketSink = NetworkInterface::PacketSink;

  explicit Network(const NocConfig& cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Install a delivery callback for packets arriving at `node`. The
  /// delivery statistics count every packet, with or without one.
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

  /// True when all routers, NIs and channels are empty. The wheel's bit
  /// counts and a test of the due mask under the active-set engine; a
  /// full mesh scan under the full-scan reference.
  [[nodiscard]] bool idle() const noexcept;

  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }
  [[nodiscard]] const MeshShape& shape() const noexcept { return shape_; }
  [[nodiscard]] const NocConfig& config() const noexcept { return cfg_; }

  /// Per-link BT, charged flit by flit as each is pushed onto its link.
  [[nodiscard]] const BtRecorder& bt() const noexcept { return bt_; }
  [[nodiscard]] const NocStats& stats() const noexcept { return stats_; }

  /// Packets queued at `node`'s NI, not yet assigned an injection VC.
  [[nodiscard]] std::size_t injection_backlog(std::int32_t node) const;

  /// Total flits buffered inside routers (diagnostics / livelock checks).
  [[nodiscard]] std::size_t buffered_flits() const noexcept;

  /// Components (NIs + routers) due at the next step(). Always the full
  /// component count under the full-scan reference.
  [[nodiscard]] std::size_t active_components() const noexcept;

 private:
  void build();
  Channel<Flit>* new_flit_channel(const LinkInfo& info, std::int32_t consumer);
  Channel<Credit>* new_credit_channel(std::int32_t consumer);

  // ---- active-set engine ----
  /// ChannelWaker: schedule component `comp` to step at `cycle` (the
  /// arrival cycle of an item just pushed into one of its input channels).
  void wake(std::int32_t comp, std::uint64_t cycle) override;
  /// Wheel mask `slot`.
  [[nodiscard]] std::span<std::uint64_t> wheel_slot(std::size_t slot);
  [[nodiscard]] bool idle_full_scan() const noexcept;

  NocConfig cfg_;
  MeshShape shape_;
  BtRecorder bt_;
  std::unique_ptr<WireOrderRecorder> wire_;  ///< set by record_wire_order()
  NocStats stats_;
  std::uint64_t cycle_ = 0;
  std::uint64_t next_packet_id_ = 0;

  std::vector<Router> routers_;
  std::vector<NetworkInterface> nis_;
  std::deque<Channel<Flit>> flit_channels_;
  std::deque<Channel<Credit>> credit_channels_;
  std::vector<PacketSink> sinks_;  ///< per node, set by set_sink()

  bool active_engine_ = true;
  /// Components to step this cycle (all of them under the full scan).
  std::vector<std::uint64_t> due_;
  std::vector<std::uint64_t> next_;  ///< components to step next cycle
  /// Timing wheel: channel_latency + 1 masks of due_.size() words, so
  /// every arrival, in (cycle_, cycle_ + channel_latency], has its own.
  std::vector<std::uint64_t> wheel_;
  std::vector<std::size_t> wheel_bits_;  ///< bits set per wheel mask
  std::size_t wheel_now_ = 0;            ///< wheel mask of cycle_
  std::int32_t current_comp_ = -1;       ///< component being stepped, or -1
};

}  // namespace nocbt::noc
