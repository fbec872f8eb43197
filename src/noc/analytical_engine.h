#pragma once
// Analytical (zero-load) NoC backend — SimEngine::kAnalytical.
//
// Instead of stepping routers cycle by cycle, AnalyticalEngine computes a
// run's measurements directly from the packet schedule:
//
//   * every packet's dimension-ordered route is walked once, producing the
//     exact sequence of physical links it crosses (injection link, D
//     inter-router links, ejection link — the same links, with the same
//     link ids, that Network::build registers);
//   * under zero-load timing, flit f of a packet injected at cycle T
//     crosses its h-th link at cycle T + h*L + f (L = channel latency),
//     so each (packet, link) crossing occupies the closed cycle interval
//     [T + h*L, T + h*L + F - 1];
//   * per-link bit transitions are accumulated by replaying each link's
//     crossings in wire order (sorted by start cycle) through the same
//     LinkAccumulator the cycle engines charge — one boundary popcount
//     plus the packet's precomputed internal transitions per crossing;
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
//
// Per-link work is embarrassingly parallel: run(threads) partitions links
// across threads with private per-link accumulators and absorbs them into
// the BtRecorder serially in link-id order, so results are identical for
// any thread count.

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

  /// Submit a packet injected at `cycle`. Mirrors Network::inject's
  /// validation (bounds, self-traffic gate, payload width); only the
  /// packet's first/last payloads and internal transition count are
  /// retained. Must not be called after run(). Returns the packet id.
  std::uint64_t inject(std::uint64_t cycle, std::int32_t src, std::int32_t dst,
                       const std::vector<BitVec>& payloads);

  /// Every link's wire order (noc/wire_order.h), built from the crossings
  /// run() sorted: each link's crossings in start order, every packet's
  /// flits back to back. Throws std::logic_error unless run() proved the
  /// schedule congestion-free (a contended schedule's serialized order is
  /// not the order a cycle engine would realize).
  [[nodiscard]] WireOrder wire_order() const;

  /// Evaluate the schedule: per-link flits/BT, NocStats, drain cycle.
  /// Returns true when the schedule was proven congestion-free (results
  /// exact) — false means the totals are a serialized approximation and
  /// contention_detail() names the first oversubscribed link. Callable
  /// once. `threads` only affects wall-clock, never results.
  bool run(unsigned threads = 1);

  /// Non-empty after run() returned false: which link/cycle clashed (or
  /// the unsupported-config reason).
  [[nodiscard]] const std::string& contention_detail() const noexcept {
    return contention_detail_;
  }

  [[nodiscard]] const BtRecorder& bt() const noexcept { return bt_; }
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
    std::int32_t hops = 0;       ///< manhattan(src, dst)
    std::uint32_t flits = 0;
    std::uint64_t intra_bt = 0;  ///< transitions between consecutive flits
    BitVec first, last;          ///< head/tail payloads (wire boundary state)
  };
  /// One packet's occupancy of one link: flits push on cycles
  /// [start, start + flits - 1].
  struct Crossing {
    std::uint64_t start = 0;
    std::uint32_t packet = 0;  ///< index into packets_
  };

  /// Sort one link's crossings into wire order and replay them. Returns
  /// false (and fills `detail` once) when two crossings overlap.
  bool evaluate_link(std::size_t link, LinkAccumulator& acc,
                     std::string& detail);

  NocConfig cfg_;
  MeshShape shape_;
  BtRecorder bt_;
  NocStats stats_;
  std::uint64_t cycle_ = 0;
  bool ran_ = false;
  bool congestion_free_ = false;
  std::string contention_detail_;

  std::vector<PacketRec> packets_;
  // Link table in Network::build registration order. inter_link_[node*4 +
  // port] is the inter-router link id out of `node` through `port` (-1 at
  // mesh edges); injection_link_/ejection_link_ are per node.
  std::vector<std::int32_t> inter_link_;
  std::vector<std::int32_t> injection_link_;
  std::vector<std::int32_t> ejection_link_;
  std::vector<std::vector<Crossing>> crossings_;  ///< per link id
};

}  // namespace nocbt::noc
