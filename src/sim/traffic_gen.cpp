#include "sim/traffic_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/flitization.h"
#include "accel/mapping.h"
#include "accel/value_codec.h"
#include "common/rng.h"
#include "dnn/models.h"
#include "dnn/zoo.h"
#include "place/placement.h"

namespace nocbt::sim {

namespace {

/// Draws payload values from the spec's distribution and encodes them to
/// wire patterns with the format's codec (identity for float-32, Q-format
/// quantization for fixed-8).
class ValueSource {
 public:
  explicit ValueSource(const ScenarioSpec& spec)
      : dist_(spec.value_dist),
        dist_a_(spec.dist_a),
        dist_b_(spec.dist_b),
        codec_(accel::ValueCodec::float32()) {
    if (dist_ == ValueDist::kUniform && !(dist_a_ < dist_b_))
      throw std::invalid_argument("ValueSource: uniform needs dist_a < dist_b");
    if (dist_ != ValueDist::kUniform && dist_b_ <= 0.0)
      throw std::invalid_argument("ValueSource: scale (dist_b) must be > 0");
    if (spec.format == DataFormat::kFixed8) {
      // Fix the quantizer range from the distribution's practical support
      // so every scenario of a campaign shares the same codec (no
      // per-stream calibration — patterns must not depend on the drawn
      // sample).
      double range = 1.0;
      switch (dist_) {
        case ValueDist::kUniform:
          range = std::max(std::fabs(dist_a_), std::fabs(dist_b_));
          break;
        case ValueDist::kNormal:
          range = std::fabs(dist_a_) + 4.0 * dist_b_;
          break;
        case ValueDist::kLaplace:
          range = 8.0 * dist_b_;
          break;
      }
      if (range <= 0.0) range = 1.0;
      const auto max_code =
          static_cast<double>((1 << (spec.fixed_bits - 1)) - 1);
      codec_ = accel::ValueCodec::fixed(
          FixedPointCodec(spec.fixed_bits, range / max_code));
    }
  }

  [[nodiscard]] std::uint32_t draw_pattern(Rng& rng) {
    double v = 0.0;
    switch (dist_) {
      case ValueDist::kUniform: v = rng.uniform(dist_a_, dist_b_); break;
      case ValueDist::kNormal: v = rng.normal(dist_a_, dist_b_); break;
      case ValueDist::kLaplace: v = rng.laplace(dist_b_); break;
    }
    return codec_.encode(static_cast<float>(v));
  }

  [[nodiscard]] std::vector<std::uint32_t> draw_patterns(Rng& rng,
                                                         std::size_t count) {
    std::vector<std::uint32_t> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(draw_pattern(rng));
    return out;
  }

 private:
  ValueDist dist_;
  double dist_a_;
  double dist_b_;
  accel::ValueCodec codec_;
};

/// Mean inter-arrival time implied by a network-wide packets/cycle rate.
std::uint64_t draw_interarrival(Rng& rng, double rate) {
  return static_cast<std::uint64_t>(rng.uniform(0.0, 2.0 / rate));
}

/// dst drawn uniformly from [0, nodes) \ {src}.
std::int32_t draw_other_node(Rng& rng, std::int32_t nodes, std::int32_t src) {
  auto d = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 2));
  if (d >= src) ++d;
  return d;
}

/// uniform, transpose, bitcomp, hotspot and burst: spec.packets packets,
/// each drawing its endpoints, then its weights, then its inputs, then the
/// next packet's earliest injection cycle, all from one seeded stream.
InjectionSchedule synthetic_schedule(const ScenarioSpec& spec) {
  Rng rng(spec.seed);
  ValueSource values(spec);
  const std::int32_t nodes = spec.rows * spec.cols;
  const GeneratorKind kind = spec.generator;

  // Transpose and bit-complement round-robin over the nodes that actually
  // send under their fixed permutation; only they fill `senders`.
  // validate() leaves at least two nodes (and a square mesh for
  // transpose), so node 0 or 1 always sends.
  const auto pattern_dst = [&](std::int32_t src) {
    if (kind == GeneratorKind::kBitComplement) return nodes - 1 - src;
    return (src % spec.cols) * spec.cols + src / spec.cols;
  };
  std::vector<std::int32_t> senders;
  if (kind == GeneratorKind::kTranspose ||
      kind == GeneratorKind::kBitComplement)
    for (std::int32_t node = 0; node < nodes; ++node)
      if (pattern_dst(node) != node) senders.push_back(node);
  const std::int32_t hotspot =
      spec.hotspot_node >= 0 ? spec.hotspot_node
                             : (spec.rows / 2) * spec.cols + spec.cols / 2;

  InjectionSchedule schedule(spec.packets);
  std::uint64_t clock = 0;
  for (std::uint32_t i = 0; i < spec.packets; ++i) {
    InjectionRequest& req = schedule[i];
    req.cycle = clock;
    if (!senders.empty()) {
      req.src = senders[i % senders.size()];
      req.dst = pattern_dst(req.src);
    } else if (kind == GeneratorKind::kHotspot &&
               rng.flip(spec.hotspot_fraction)) {
      req.dst = hotspot;
      req.src = draw_other_node(rng, nodes, hotspot);
    } else {
      req.src = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
      req.dst = draw_other_node(rng, nodes, req.src);
    }
    req.weights = values.draw_patterns(rng, spec.window);
    req.inputs = values.draw_patterns(rng, spec.window);
    if (kind != GeneratorKind::kBurst)
      clock += draw_interarrival(rng, spec.injection_rate);
    else if ((i + 1) % spec.burst_len != 0)
      ++clock;  // burst_len back-to-back packets,
    else
      clock += spec.burst_gap;  // then burst_gap idle cycles
  }
  return schedule;
}

/// Re-injects a recorded PacketTrace: each event becomes one packet at its
/// original inject_cycle with its original src/dst and flit count. Events
/// that carry recorded payload words (a trace dumped by record_schedule)
/// re-inject them verbatim — bit-exact replay; legacy traces without
/// payload columns get values synthesized from the scenario's value
/// distribution instead.
InjectionSchedule replay_schedule(const ScenarioSpec& spec) {
  Rng rng(spec.seed);
  ValueSource values(spec);
  std::vector<noc::TraceEvent> events =
      noc::PacketTrace::load_csv(spec.trace_path).events();
  std::stable_sort(events.begin(), events.end(),
                   [](const noc::TraceEvent& a, const noc::TraceEvent& b) {
                     return a.inject_cycle < b.inject_cycle;
                   });
  const std::int32_t nodes = spec.rows * spec.cols;
  for (const auto& e : events) {
    if (e.src < 0 || e.src >= nodes || e.dst < 0 || e.dst >= nodes)
      throw std::invalid_argument(
          "generate_schedule: trace node outside the " +
          std::to_string(spec.rows) + "x" + std::to_string(spec.cols) +
          " mesh (packet " + std::to_string(e.packet_id) + ")");
    if (e.num_flits < 1)
      throw std::invalid_argument("generate_schedule: zero-flit packet " +
                                  std::to_string(e.packet_id));
    if (e.has_payload()) {
      // Recorded pairs must still fill exactly num_flits flits under this
      // scenario's layout, or the replayed timing would diverge from the
      // recorded one.
      const auto pairs = static_cast<std::uint32_t>(e.weights.size());
      const std::uint32_t half = spec.values_per_flit / 2;
      if ((pairs + half - 1) / half != e.num_flits)
        throw std::invalid_argument(
            "generate_schedule: packet " + std::to_string(e.packet_id) +
            " records " + std::to_string(pairs) + " pairs but " +
            std::to_string(e.num_flits) + " flits — trace was dumped " +
            "under a different values_per_flit");
    }
  }

  InjectionSchedule schedule(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    noc::TraceEvent& e = events[i];
    InjectionRequest& req = schedule[i];
    req.cycle = e.inject_cycle;
    req.src = e.src;
    req.dst = e.dst;
    if (e.has_payload()) {
      req.weights = std::move(e.weights);
      req.inputs = std::move(e.inputs);
      continue;
    }
    // Exactly num_flits flits: half-half packing with no bias makes
    // flits_needed(pairs) == ceil(pairs / half) == num_flits.
    const std::size_t pairs =
        static_cast<std::size_t>(e.num_flits) * (spec.values_per_flit / 2);
    req.weights = values.draw_patterns(rng, pairs);
    req.inputs = values.draw_patterns(rng, pairs);
  }
  return schedule;
}

/// Placed model-zoo workload: builds the scenario's zoo model (model_seed),
/// shards its weighted layers across PE tiles (src/place, spec.placement
/// policy, spec.tiles_per_layer), and returns the derived MC->PE
/// weight/ifmap and PE->PE partial-sum schedule. Weight payloads are the
/// model's real trained-like weights; activation payloads come from the
/// scenario's value distribution (spec.seed).
InjectionSchedule placement_schedule(const ScenarioSpec& spec) {
  Rng rng(spec.seed);
  ValueSource values(spec);
  Rng model_rng(spec.model_seed);
  dnn::Sequential model = dnn::build_zoo_model(spec.model, model_rng);
  Rng fill_rng(spec.model_seed + 1);
  dnn::fill_weights_trained_like(model, fill_rng);

  const noc::MeshShape mesh(spec.rows, spec.cols);
  const accel::NodeRoles roles = accel::assign_roles(mesh, spec.num_mcs);
  const place::Placement placed = place::place_model(
      model, dnn::zoo_model_spec(spec.model).input, mesh, roles,
      place::policies().get(spec.placement), spec.tiles_per_layer);

  place::TrafficConfig traffic;
  traffic.pairs_per_packet = spec.window;
  traffic.layout =
      accel::FlitLayout{spec.values_per_flit, value_bits(spec.format)};
  traffic.weight_codec =
      spec.format == DataFormat::kFixed8
          ? accel::ValueCodec::fixed_calibrated(spec.fixed_bits,
                                                model.weight_values())
          : accel::ValueCodec::float32();
  traffic.draw_activation = [&] { return values.draw_pattern(rng); };
  return place::build_schedule(placed, traffic).packets;
}

}  // namespace

InjectionSchedule generate_schedule(const ScenarioSpec& spec) {
  spec.validate();
  switch (spec.generator) {
    case GeneratorKind::kUniform:
    case GeneratorKind::kTranspose:
    case GeneratorKind::kBitComplement:
    case GeneratorKind::kHotspot:
    case GeneratorKind::kBurst:
      return synthetic_schedule(spec);
    case GeneratorKind::kReplay:
      return replay_schedule(spec);
    case GeneratorKind::kPlacement:
      return placement_schedule(spec);
    case GeneratorKind::kModel:
      break;
  }
  throw std::invalid_argument(
      "generate_schedule: '" + to_string(spec.generator) +
      "' is not a synthetic generator (model workloads run through "
      "NocDnaPlatform in the campaign runner)");
}

noc::PacketTrace record_schedule(const ScenarioSpec& spec) {
  InjectionSchedule schedule = generate_schedule(spec);
  const accel::FlitLayout layout{spec.values_per_flit,
                                 value_bits(spec.format)};
  const noc::MeshShape mesh(spec.rows, spec.cols);
  noc::PacketTrace trace;
  std::uint64_t id = 0;
  for (InjectionRequest& req : schedule) {
    noc::TraceEvent e;
    e.packet_id = id++;
    e.src = req.src;
    e.dst = req.dst;
    e.num_flits = accel::flits_needed(
        static_cast<std::uint32_t>(req.weights.size()), /*has_bias=*/false,
        layout);
    e.inject_cycle = req.cycle;
    e.hops = static_cast<std::uint16_t>(mesh.manhattan(req.src, req.dst));
    e.eject_cycle = req.cycle + e.hops + e.num_flits;
    e.weights = std::move(req.weights);
    e.inputs = std::move(req.inputs);
    trace.record(e);
  }
  return trace;
}

}  // namespace nocbt::sim
