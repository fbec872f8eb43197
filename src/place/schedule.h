#pragma once
// Traffic derivation: turn a Placement into a timed packet schedule.
//
// Per op o (phase o), every tile receives (a) its weight slice — real
// model weights, codec-encoded — plus any model-input activations from
// its memory controller, and (b) the producer activations it consumes as
// PE-to-PE flows: full producer-tile shares for dense edges, channel
// overlaps for depthwise consumers and elementwise (residual skip) edges.
// A final phase drains the last op's outputs back to the MCs. Flows whose
// source and destination tile coincide stay on-PE and are only counted.
//
// Timing: phases are serialized (phase o+1 starts after every phase-o
// packet has left its source); within a phase each source NI serializes
// its own packets back to back (cycle advances by the packet's flit
// count), which keeps single-source link schedules provably
// congestion-free for the analytical engine on small placements.
//
// Payload pairing into half-half flits: transfers carrying both weights
// and activations zip them pairwise with the shorter stream cycling
// (weight retransmission across ifmap windows); single-stream transfers
// split alternately across the two flit halves.

#include <cstdint>
#include <functional>
#include <vector>

#include "accel/flitization.h"
#include "accel/value_codec.h"
#include "place/placement.h"

namespace nocbt::place {

/// One packet of traffic: inject at `cycle` (or as soon after as the
/// source queue allows), carrying pre-ordering (weight, input) wire-pattern
/// pairs. The campaign runner takes the same requests (sim::InjectionRequest
/// names this struct), so a placed schedule is its request list as it is.
struct InjectionRequest {
  std::uint64_t cycle = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::vector<std::uint32_t> weights;  ///< wire patterns, natural order
  std::vector<std::uint32_t> inputs;   ///< same length as weights
};

/// A whole injection schedule, in non-decreasing cycle order.
using InjectionSchedule = std::vector<InjectionRequest>;

/// How a placement's flows become flits and wire patterns.
struct TrafficConfig {
  /// (weight, input) pairs per packet — the ordering window, in pairs.
  std::uint32_t pairs_per_packet = 64;
  accel::FlitLayout layout{};
  /// Encoder for the model's real weight values.
  accel::ValueCodec weight_codec = accel::ValueCodec::float32();
  /// Wire-pattern source for activation values (drawn in schedule order;
  /// must be deterministic for reproducible schedules).
  std::function<std::uint32_t()> draw_activation;
};

/// A derived schedule plus traffic accounting.
struct PlacedSchedule {
  InjectionSchedule packets;  ///< non-decreasing cycles
  std::uint64_t phases = 0;
  std::uint64_t mc_to_pe_values = 0;  ///< weight + ifmap values from MCs
  std::uint64_t pe_to_pe_values = 0;  ///< inter-layer activation values
  std::uint64_t pe_to_mc_values = 0;  ///< result values drained to MCs
  std::uint64_t local_values = 0;     ///< values that never left their PE
};

/// Derive the packet schedule for `placement`. Throws
/// std::invalid_argument when config.draw_activation is empty or the
/// layout cannot hold a pair.
[[nodiscard]] PlacedSchedule build_schedule(const Placement& placement,
                                            const TrafficConfig& config);

}  // namespace nocbt::place
