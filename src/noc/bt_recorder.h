#pragma once
// Bit-transition recorder (paper Fig. 8).
//
// Per-link and per-link-class bit-transition counters. A recorder is
// filled one of two ways:
//   * observe(): the cycle engines charge every flit as it is pushed onto
//     a link. Each link has one previous-flit register; the flit is
//     XOR-compared against it, the popcount of the difference accumulated,
//     and the flit latched. Idle cycles hold the wire state, so no
//     transitions are charged while a link is silent.
//   * add(): the wire-order replay (noc/wire_order.h) applies the same rule
//     to a recorded flit sequence and adds each link's totals. Such a
//     recorder's wire registers stay all-zero and are never read.
// Recording is measurement-only: it models the *wires*, not hardware added
// to the design.

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "noc/routing.h"

namespace nocbt::noc {

/// Which class of physical link a monitored channel is.
enum class LinkKind : std::uint8_t {
  kInjection,    ///< NI -> router (NI output port)
  kInterRouter,  ///< router -> router
  kEjection,     ///< router -> NI (router local output port)
};

/// Static description of a monitored link.
struct LinkInfo {
  LinkKind kind = LinkKind::kInterRouter;
  std::int32_t src = -1;       ///< source node id (router or NI node)
  std::int32_t dst = -1;       ///< destination node id
  std::int32_t src_port = -1;  ///< output port at the source (routers only)
};

[[nodiscard]] inline bool operator==(const LinkInfo& a,
                                     const LinkInfo& b) noexcept {
  return a.kind == b.kind && a.src == b.src && a.dst == b.dst &&
         a.src_port == b.src_port;
}

/// Every link of `shape`'s mesh, in link-id order: the inter-router links
/// node-major with ports E, W, N, S within a node, then each node's
/// injection and ejection links. Network builds its channels from this
/// list and AnalyticalEngine indexes it, so link ids (and with them
/// snapshots, heatmaps and energy rows) mean the same link in both.
[[nodiscard]] std::vector<LinkInfo> mesh_links(const MeshShape& shape);

/// One link's accumulated measurements, frozen at snapshot time. This is
/// the unit the hw::EnergyModel converts into pJ — keeping it a plain
/// value lets campaign workers copy it out of a worker-private Network
/// before the network is torn down.
struct LinkObservation {
  std::int32_t link_id = -1;
  LinkInfo info;
  std::uint64_t flits = 0;
  std::uint64_t transitions = 0;
};

[[nodiscard]] inline bool operator==(const LinkObservation& a,
                                     const LinkObservation& b) noexcept {
  return a.link_id == b.link_id && a.info == b.info && a.flits == b.flits &&
         a.transitions == b.transitions;
}

/// Accumulates bit transitions per link and per link class.
class BtRecorder {
 public:
  /// `payload_bits` is the link width observe() latches.
  explicit BtRecorder(unsigned payload_bits) : payload_bits_(payload_bits) {}

  /// Register a link to monitor, its wire all-zero; returns its link id.
  std::int32_t register_link(const LinkInfo& info);

  /// One flit crossing link `link_id`: charge popcount(wire XOR payload)
  /// and latch the payload onto the wire.
  void observe(std::int32_t link_id, const BitVec& payload);

  /// Add `flits` crossings carrying `transitions` bit transitions, counted
  /// elsewhere, to link `link_id`.
  void add(std::int32_t link_id, std::uint64_t flits,
           std::uint64_t transitions);

  /// The "NoC Bit Transition Sum" of Fig. 8: transitions on router output
  /// ports, i.e. inter-router plus ejection links.
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// Transitions on every monitored link, injection links included.
  [[nodiscard]] std::uint64_t total_all_links() const noexcept;

  [[nodiscard]] std::uint64_t by_kind(LinkKind kind) const noexcept {
    return kind_bt_[static_cast<std::size_t>(kind)];
  }

  /// Frozen copies of every monitored link's counters, in link-id order.
  [[nodiscard]] std::vector<LinkObservation> snapshot() const;

 private:
  /// One link's wire register and counters.
  struct LinkAccumulator {
    BitVec wire;  ///< payload of the last flit observe() charged
    std::uint64_t flits = 0;
    std::uint64_t transitions = 0;
  };

  unsigned payload_bits_;
  std::vector<LinkInfo> links_;
  std::vector<LinkAccumulator> accs_;
  std::uint64_t kind_bt_[3] = {0, 0, 0};
};

/// Human-readable name of a link kind.
[[nodiscard]] std::string to_string(LinkKind kind);

}  // namespace nocbt::noc
