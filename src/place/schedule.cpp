#include "place/schedule.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace nocbt::place {

namespace {

/// Output-volume share of producer units [begin, end) inside a consumed
/// volume of `total` values (exact at unit boundaries: pooling/flatten
/// fusion keeps the consumed volume a multiple of the producer's units).
std::int64_t unit_share(std::int64_t total, std::int32_t units,
                        std::int32_t begin, std::int32_t end) {
  return end * total / units - begin * total / units;
}

std::int32_t overlap(const TileAssignment& a, const TileAssignment& b) {
  return std::max(
      0, std::min(a.unit_end, b.unit_end) - std::max(a.unit_begin, b.unit_begin));
}

class ScheduleBuilder {
 public:
  ScheduleBuilder(const Placement& placement, const TrafficConfig& config)
      : placement_(placement), config_(config) {
    if (!config.draw_activation)
      throw std::invalid_argument(
          "build_schedule: config.draw_activation is required");
    if (config.layout.half() < 1)
      throw std::invalid_argument(
          "build_schedule: layout cannot hold a (weight, input) pair");
    if (config.pairs_per_packet < 1)
      throw std::invalid_argument(
          "build_schedule: pairs_per_packet must be >= 1");
  }

  PlacedSchedule run() {
    for (std::size_t o = 0; o < placement_.ops.size(); ++o) {
      begin_phase();
      const PlacedOp& op = placement_.ops[o];
      for (const TileAssignment& tile : op.tiles) emit_tile_inputs(op, tile);
      end_phase();
    }
    // Result phase: the last op's tiles drain their outputs to their MCs.
    begin_phase();
    const PlacedOp& last = placement_.ops.back();
    const std::int64_t out_spatial =
        static_cast<std::int64_t>(last.out_shape.h) * last.out_shape.w;
    for (const TileAssignment& tile : last.tiles) {
      const std::int64_t count = tile.units() * out_spatial;
      schedule_.pe_to_mc_values += static_cast<std::uint64_t>(count);
      emit_transfer(tile.pe, placement_.roles.mcs[tile.mc], {}, count);
    }
    end_phase();

    std::stable_sort(schedule_.packets.begin(), schedule_.packets.end(),
                     [](const InjectionRequest& a, const InjectionRequest& b) {
                       return a.cycle < b.cycle;
                     });
    return std::move(schedule_);
  }

 private:
  void emit_tile_inputs(const PlacedOp& op, const TileAssignment& tile) {
    // Weight slice for the tile's units, encoded from the real model
    // weights, plus any model-input activations — all from the tile's MC.
    std::vector<std::uint32_t> weights;
    weights.reserve(static_cast<std::size_t>(tile.units()) *
                    static_cast<std::size_t>(op.weights_per_unit));
    const auto begin = static_cast<std::size_t>(tile.unit_begin) *
                       static_cast<std::size_t>(op.weights_per_unit);
    const auto end = static_cast<std::size_t>(tile.unit_end) *
                     static_cast<std::size_t>(op.weights_per_unit);
    for (std::size_t i = begin; i < end; ++i)
      weights.push_back(config_.weight_codec.encode(op.weights[i]));

    std::int64_t external_acts = 0;
    for (const OpInput& edge : op.inputs)
      if (edge.producer < 0) external_acts += edge_count_external(op, tile, edge);

    schedule_.mc_to_pe_values +=
        weights.size() + static_cast<std::uint64_t>(external_acts);
    emit_transfer(placement_.roles.mcs[tile.mc], tile.pe, std::move(weights),
                  external_acts);

    // Producer activations arrive as PE-to-PE flows, one per producer tile.
    for (const OpInput& edge : op.inputs) {
      if (edge.producer < 0) continue;
      const PlacedOp& prod =
          placement_.ops[static_cast<std::size_t>(edge.producer)];
      for (const TileAssignment& pt : prod.tiles) {
        const std::int64_t count = edge_count(op, tile, edge, prod, pt);
        if (count == 0) continue;
        if (pt.pe == tile.pe) {
          schedule_.local_values += static_cast<std::uint64_t>(count);
          continue;
        }
        schedule_.pe_to_pe_values += static_cast<std::uint64_t>(count);
        emit_transfer(pt.pe, tile.pe, {}, count);
      }
    }
  }

  /// Values a model-input (producer -1) edge delivers to `tile`.
  [[nodiscard]] std::int64_t edge_count_external(const PlacedOp& op,
                                                 const TileAssignment& tile,
                                                 const OpInput& edge) const {
    if (edge.elementwise)
      return tile.units() * static_cast<std::int64_t>(op.out_shape.h) *
             op.out_shape.w;
    if (op.channelwise())
      return tile.units() * static_cast<std::int64_t>(op.in_shape.h) *
             op.in_shape.w;
    return op.in_shape.numel();  // dense: the full ifmap
  }

  /// Values producer tile `pt` delivers to consumer `tile` over `edge`.
  [[nodiscard]] std::int64_t edge_count(const PlacedOp& op,
                                        const TileAssignment& tile,
                                        const OpInput& edge,
                                        const PlacedOp& prod,
                                        const TileAssignment& pt) const {
    if (edge.elementwise)
      // Skip edge: channels of the shortcut matching the tile's output
      // units (validated equal counts by place_model).
      return overlap(tile, pt) * static_cast<std::int64_t>(op.out_shape.h) *
             op.out_shape.w;
    if (op.channelwise()) {
      if (prod.units != op.in_shape.c)
        throw std::invalid_argument(
            "build_schedule: depthwise consumer " + op.name +
            " needs channel-preserving producer, got " + prod.name);
      return overlap(tile, pt) * static_cast<std::int64_t>(op.in_shape.h) *
             op.in_shape.w;
    }
    // Dense: every consumer tile reads the producer tile's full share of
    // the consumed activation volume.
    return unit_share(op.in_shape.numel(), prod.units, pt.unit_begin,
                      pt.unit_end);
  }

  /// Pair a transfer's streams into half-half windows and append its
  /// packets, serializing on the source NI's cursor.
  void emit_transfer(std::int32_t src, std::int32_t dst,
                     std::vector<std::uint32_t> weights,
                     std::int64_t activation_count) {
    std::vector<std::uint32_t> w;
    std::vector<std::uint32_t> in;
    if (!weights.empty() && activation_count > 0) {
      // Two streams: zip pairwise, cycling the shorter one (weights are
      // retransmitted across ifmap windows and vice versa).
      std::vector<std::uint32_t> acts(
          static_cast<std::size_t>(activation_count));
      for (auto& a : acts) a = config_.draw_activation();
      const std::size_t n = std::max(weights.size(), acts.size());
      w.reserve(n);
      in.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        w.push_back(weights[i % weights.size()]);
        in.push_back(acts[i % acts.size()]);
      }
    } else if (!weights.empty() || activation_count > 0) {
      // One stream: split alternately across the two flit halves.
      std::vector<std::uint32_t> stream = std::move(weights);
      if (stream.empty()) {
        stream.resize(static_cast<std::size_t>(activation_count));
        for (auto& a : stream) a = config_.draw_activation();
      }
      const std::size_t n = (stream.size() + 1) / 2;
      w.reserve(n);
      in.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        w.push_back(stream[2 * i]);
        in.push_back(2 * i + 1 < stream.size() ? stream[2 * i + 1]
                                               : stream.back());
      }
    } else {
      return;
    }

    for (std::size_t at = 0; at < w.size(); at += config_.pairs_per_packet) {
      const std::size_t take = std::min<std::size_t>(
          config_.pairs_per_packet, w.size() - at);
      InjectionRequest pkt;
      pkt.src = src;
      pkt.dst = dst;
      pkt.weights.assign(w.begin() + static_cast<std::ptrdiff_t>(at),
                         w.begin() + static_cast<std::ptrdiff_t>(at + take));
      pkt.inputs.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                        in.begin() + static_cast<std::ptrdiff_t>(at + take));
      std::uint64_t& cursor = cursors_.try_emplace(src, phase_start_).first->second;
      pkt.cycle = cursor;
      cursor += accel::flits_needed(static_cast<std::uint32_t>(take),
                                    /*has_bias=*/false, config_.layout);
      schedule_.packets.push_back(std::move(pkt));
    }
  }

  void begin_phase() { cursors_.clear(); }

  void end_phase() {
    std::uint64_t phase_end = phase_start_;
    for (const auto& [src, cursor] : cursors_)
      phase_end = std::max(phase_end, cursor);
    phase_start_ = phase_end;
    ++schedule_.phases;
  }

  const Placement& placement_;
  const TrafficConfig& config_;
  PlacedSchedule schedule_;
  std::uint64_t phase_start_ = 0;
  std::unordered_map<std::int32_t, std::uint64_t> cursors_;
};

}  // namespace

PlacedSchedule build_schedule(const Placement& placement,
                              const TrafficConfig& config) {
  return ScheduleBuilder(placement, config).run();
}

}  // namespace nocbt::place
