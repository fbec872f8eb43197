#pragma once
// Analytical (zero-load) NoC backend — SimEngine::kAnalytical.
//
// Instead of stepping routers cycle by cycle, AnalyticalEngine computes a
// run's measurements directly from the packet schedule:
//
//   * every packet's dimension-ordered route is walked once, producing the
//     exact sequence of physical links it crosses (injection link, D
//     inter-router links, ejection link — indexed in mesh_links(), the
//     table Network builds its channels from);
//   * under zero-load timing, flit f of a packet injected at cycle T
//     crosses its h-th link at cycle T + h*L + f (L = channel latency),
//     so each (packet, link) crossing occupies the closed cycle interval
//     [T + h*L, T + h*L + F - 1];
//   * run() sorts each link's crossings by start cycle and checks them for
//     overlaps; with every packet's flits back to back, that is each
//     link's wire order (noc/wire_order.h);
//   * per-link bit transitions are score_wire_order over that order and
//     the injected payloads — the same replay that scores every ordered
//     mode of a campaign grid point;
//   * zero-load latency, hop counts, drain time and delivery order follow
//     in closed form, reproducing the cycle engines' NocStats
//     byte-for-byte (Welford accumulators included: deliveries are added
//     in the cycle engines' (delivery cycle, destination node) order).
//
// The results are EXACT — bit-identical to Network under either cycle
// engine — precisely when the schedule is congestion-free: on every link,
// the crossing intervals are pairwise disjoint. Disjoint link intervals
// imply no router-internal contention either (two packets can only meet
// inside a router if they share its input or output link), so every flit
// moves at zero-load speed and the analytical timing is the realized
// timing. run() verifies this precondition from the schedule itself and
// reports it; on a contended schedule the totals are a serialized
// approximation and callers (the campaign runner) fall back to a cycle
// engine or fail loudly.
//
// Exactness additionally needs the wormhole credit loop to sustain one
// flit per cycle: vc_buffer_depth >= 2 * channel_latency (the credit
// round trip). unsupported_reason() gates configurations outside that.

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "noc/bt_recorder.h"
#include "noc/noc_config.h"
#include "noc/noc_stats.h"
#include "noc/routing.h"
#include "noc/wire_order.h"

namespace nocbt::noc {

class AnalyticalEngine {
 public:
  explicit AnalyticalEngine(const NocConfig& cfg);

  AnalyticalEngine(const AnalyticalEngine&) = delete;
  AnalyticalEngine& operator=(const AnalyticalEngine&) = delete;

  /// Why `cfg` cannot be simulated exactly by this backend; empty when it
  /// can. (Cycle engines handle every valid config; the analytical model
  /// additionally needs the credit loop deep enough for back-to-back
  /// flits.)
  [[nodiscard]] static std::string unsupported_reason(const NocConfig& cfg);

  /// Submit a packet injected at `cycle`, checked as Network::inject
  /// checks it (check_injection). The payload words are kept for bt().
  /// Must not be called after run(). Returns the packet id.
  std::uint64_t inject(std::uint64_t cycle, std::int32_t src, std::int32_t dst,
                       const std::vector<BitVec>& payloads);

  /// Every link's wire order (noc/wire_order.h), built from the crossings
  /// run() sorted: each link's crossings in start order, every packet's
  /// flits back to back. Throws std::logic_error unless run() proved the
  /// schedule congestion-free (a contended schedule's serialized order is
  /// not the order a cycle engine would realize).
  [[nodiscard]] WireOrder wire_order() const;

  /// Evaluate the schedule: sort and check every link's crossings, then
  /// NocStats and the drain cycle. Returns true when the schedule was
  /// proven congestion-free (results exact) — false means the totals are a
  /// serialized approximation and contention_detail() names the first
  /// oversubscribed link. Callable once.
  bool run();

  /// Non-empty after run() returned false: which link/cycle clashed (or
  /// the unsupported-config reason).
  [[nodiscard]] const std::string& contention_detail() const noexcept {
    return contention_detail_;
  }

  /// Per-link flits and BT (valid after run()): score_wire_order over the
  /// injected payloads in each link's crossing order, computed on every
  /// call. After a contended run this charges the serialized order.
  [[nodiscard]] BtRecorder bt() const;
  [[nodiscard]] const NocStats& stats() const noexcept { return stats_; }
  /// Drain cycle (valid after run()): the cycle count a cycle engine
  /// reports after run_until_idle on the same schedule.
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }
  [[nodiscard]] const MeshShape& shape() const noexcept { return shape_; }
  [[nodiscard]] const NocConfig& config() const noexcept { return cfg_; }

 private:
  struct PacketRec {
    std::uint64_t inject_cycle = 0;
    std::int32_t dst = -1;
    std::int32_t hops = 0;  ///< manhattan(src, dst)
    std::uint32_t flits = 0;
  };
  /// One packet's occupancy of one link: flits push on cycles
  /// [start, start + flits - 1].
  struct Crossing {
    std::uint64_t start = 0;
    std::uint32_t packet = 0;  ///< index into packets_
    std::int32_t link = -1;
  };

  /// Sort one link's crossings into wire order. Returns false, and fills
  /// `detail` with the first clash, when two crossings overlap.
  bool sort_link(std::size_t link, std::string& detail);

  /// Every link's crossings as a WireOrder, without wire_order()'s guard.
  [[nodiscard]] WireOrder order() const;

  NocConfig cfg_;
  MeshShape shape_;
  std::vector<LinkInfo> links_;  ///< mesh_links(shape_)
  NocStats stats_;
  std::uint64_t cycle_ = 0;
  bool ran_ = false;
  bool congestion_free_ = false;
  std::string contention_detail_;

  std::vector<PacketRec> packets_;
  FlatPayloads payloads_;  ///< every injected flit, in injection order
  /// Link id out of router `node` through port p at [node * kNumPorts + p]
  /// (kLocal: the ejection link; -1 at mesh edges), and into it from its NI
  /// at injection_link_[node].
  std::vector<std::int32_t> output_link_;
  std::vector<std::int32_t> injection_link_;
  /// Every crossing, in one array rather than one vector per link (most
  /// links see only a few): in injection order until run() groups them by
  /// link id, each link's at [link_begin_[link], link_begin_[link + 1]).
  std::vector<Crossing> crossings_;
  std::vector<std::size_t> link_begin_;  ///< filled by run()
};

}  // namespace nocbt::noc
