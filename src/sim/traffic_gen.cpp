#include "sim/traffic_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "accel/flitization.h"
#include "accel/mapping.h"
#include "dnn/models.h"
#include "dnn/zoo.h"
#include "noc/trace.h"
#include "place/placement.h"
#include "place/schedule.h"

namespace nocbt::sim {

namespace {

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

/// Shared scaffolding: packet budget, clock, payload drawing.
class SyntheticGenerator : public TrafficGenerator {
 public:
  explicit SyntheticGenerator(const ScenarioSpec& spec)
      : spec_(spec), rng_(spec.seed), values_(spec) {}

  std::optional<InjectionRequest> next() final {
    if (emitted_ >= spec_.packets) return std::nullopt;
    InjectionRequest req;
    req.cycle = clock_;
    pick_endpoints(req.src, req.dst);
    req.weights = values_.draw_patterns(rng_, spec_.window);
    req.inputs = values_.draw_patterns(rng_, spec_.window);
    ++emitted_;
    advance_clock();
    return req;
  }

 protected:
  /// Choose src/dst for the next packet (may use rng()).
  virtual void pick_endpoints(std::int32_t& src, std::int32_t& dst) = 0;

  /// Move the clock to the next packet's earliest injection cycle.
  virtual void advance_clock() {
    clock_ += draw_interarrival(rng_, spec_.injection_rate);
  }

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::int32_t nodes() const noexcept {
    return spec_.rows * spec_.cols;
  }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  std::uint64_t clock_ = 0;

 private:
  ScenarioSpec spec_;
  Rng rng_;
  ValueSource values_;
  std::uint32_t emitted_ = 0;
};

class UniformGenerator final : public SyntheticGenerator {
 public:
  using SyntheticGenerator::SyntheticGenerator;
  [[nodiscard]] std::string name() const override { return "uniform"; }

 private:
  void pick_endpoints(std::int32_t& src, std::int32_t& dst) override {
    src = static_cast<std::int32_t>(rng().uniform_int(0, nodes() - 1));
    dst = draw_other_node(rng(), nodes(), src);
  }
};

/// Round-robins over the nodes that actually send under a fixed
/// permutation pattern (transpose / bit-complement).
class PermutationGenerator final : public SyntheticGenerator {
 public:
  PermutationGenerator(const ScenarioSpec& spec, bool transpose)
      : SyntheticGenerator(spec), transpose_(transpose) {
    for (std::int32_t node = 0; node < nodes(); ++node)
      if (pattern_dst(node) != node) sources_.push_back(node);
    if (sources_.empty())
      throw std::invalid_argument(
          "PermutationGenerator: every node maps to itself");
  }

  [[nodiscard]] std::string name() const override {
    return transpose_ ? "transpose" : "bitcomp";
  }

 private:
  [[nodiscard]] std::int32_t pattern_dst(std::int32_t src) const {
    if (!transpose_) return nodes() - 1 - src;
    const std::int32_t r = src / spec().cols;
    const std::int32_t c = src % spec().cols;
    return c * spec().cols + r;
  }

  void pick_endpoints(std::int32_t& src, std::int32_t& dst) override {
    src = sources_[cursor_];
    dst = pattern_dst(src);
    cursor_ = (cursor_ + 1) % sources_.size();
  }

  bool transpose_;
  std::vector<std::int32_t> sources_;
  std::size_t cursor_ = 0;
};

class HotspotGenerator final : public SyntheticGenerator {
 public:
  explicit HotspotGenerator(const ScenarioSpec& spec)
      : SyntheticGenerator(spec),
        hotspot_(spec.hotspot_node >= 0
                     ? spec.hotspot_node
                     : (spec.rows / 2) * spec.cols + spec.cols / 2) {}

  [[nodiscard]] std::string name() const override { return "hotspot"; }

 private:
  void pick_endpoints(std::int32_t& src, std::int32_t& dst) override {
    const bool to_spot = rng().flip(spec().hotspot_fraction);
    if (to_spot) {
      dst = hotspot_;
      src = draw_other_node(rng(), nodes(), dst);
    } else {
      src = static_cast<std::int32_t>(rng().uniform_int(0, nodes() - 1));
      dst = draw_other_node(rng(), nodes(), src);
    }
  }

  std::int32_t hotspot_;
};

class BurstGenerator final : public SyntheticGenerator {
 public:
  using SyntheticGenerator::SyntheticGenerator;
  [[nodiscard]] std::string name() const override { return "burst"; }

 private:
  void pick_endpoints(std::int32_t& src, std::int32_t& dst) override {
    src = static_cast<std::int32_t>(rng().uniform_int(0, nodes() - 1));
    dst = draw_other_node(rng(), nodes(), src);
  }

  void advance_clock() override {
    // burst_len back-to-back packets, then burst_gap idle cycles.
    if (++in_burst_ < spec().burst_len) {
      ++clock_;
    } else {
      in_burst_ = 0;
      clock_ += spec().burst_gap;
    }
  }

  std::uint32_t in_burst_ = 0;
};

/// Re-injects a recorded PacketTrace: each event becomes one packet at its
/// original inject_cycle with its original src/dst and flit count. Events
/// that carry recorded payload words (a trace dumped by record_schedule)
/// re-inject them verbatim — bit-exact replay; legacy traces without
/// payload columns get values synthesized from the scenario's value
/// distribution instead.
class ReplayGenerator final : public TrafficGenerator {
 public:
  explicit ReplayGenerator(const ScenarioSpec& spec)
      : spec_(spec), rng_(spec.seed), values_(spec) {
    const noc::PacketTrace trace = noc::PacketTrace::load_csv(spec.trace_path);
    events_ = trace.events();
    std::stable_sort(events_.begin(), events_.end(),
                     [](const noc::TraceEvent& a, const noc::TraceEvent& b) {
                       return a.inject_cycle < b.inject_cycle;
                     });
    const std::int32_t nodes = spec.rows * spec.cols;
    for (const auto& e : events_) {
      if (e.src < 0 || e.src >= nodes || e.dst < 0 || e.dst >= nodes)
        throw std::invalid_argument(
            "ReplayGenerator: trace node outside the " +
            std::to_string(spec.rows) + "x" + std::to_string(spec.cols) +
            " mesh (packet " + std::to_string(e.packet_id) + ")");
      if (e.num_flits < 1)
        throw std::invalid_argument("ReplayGenerator: zero-flit packet " +
                                    std::to_string(e.packet_id));
      if (e.has_payload()) {
        // Recorded pairs must still fill exactly num_flits flits under this
        // scenario's layout, or the replayed timing would diverge from the
        // recorded one.
        const auto pairs = static_cast<std::uint32_t>(e.weights.size());
        const std::uint32_t half = spec.values_per_flit / 2;
        if ((pairs + half - 1) / half != e.num_flits)
          throw std::invalid_argument(
              "ReplayGenerator: packet " + std::to_string(e.packet_id) +
              " records " + std::to_string(pairs) + " pairs but " +
              std::to_string(e.num_flits) + " flits — trace was dumped " +
              "under a different values_per_flit");
      }
    }
  }

  std::optional<InjectionRequest> next() override {
    if (cursor_ >= events_.size()) return std::nullopt;
    noc::TraceEvent& e = events_[cursor_++];
    InjectionRequest req;
    req.cycle = e.inject_cycle;
    req.src = e.src;
    req.dst = e.dst;
    if (e.has_payload()) {
      req.weights = std::move(e.weights);
      req.inputs = std::move(e.inputs);
      return req;
    }
    // Exactly num_flits flits: half-half packing with no bias makes
    // flits_needed(pairs) == ceil(pairs / half) == num_flits.
    const std::size_t pairs =
        static_cast<std::size_t>(e.num_flits) * (spec_.values_per_flit / 2);
    req.weights = values_.draw_patterns(rng_, pairs);
    req.inputs = values_.draw_patterns(rng_, pairs);
    return req;
  }

  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  ScenarioSpec spec_;
  Rng rng_;
  ValueSource values_;
  std::vector<noc::TraceEvent> events_;
  std::size_t cursor_ = 0;
};

/// Placed model-zoo workload: builds the scenario's zoo model (model_seed),
/// shards its weighted layers across PE tiles (src/place, spec.placement
/// policy, spec.tiles_per_layer), and injects the derived MC->PE
/// weight/ifmap and PE->PE partial-sum schedule. Weight payloads are the
/// model's real trained-like weights; activation payloads come from the
/// scenario's value distribution (spec.seed).
class PlacementGenerator final : public TrafficGenerator {
 public:
  explicit PlacementGenerator(const ScenarioSpec& spec)
      : rng_(spec.seed), values_(spec) {
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
    traffic.draw_activation = [this] { return values_.draw_pattern(rng_); };
    schedule_ = place::build_schedule(placed, traffic);
  }

  std::optional<InjectionRequest> next() override {
    if (cursor_ >= schedule_.packets.size()) return std::nullopt;
    place::FlowPacket& pkt = schedule_.packets[cursor_++];
    InjectionRequest req;
    req.cycle = pkt.cycle;
    req.src = pkt.src;
    req.dst = pkt.dst;
    req.weights = std::move(pkt.weights);
    req.inputs = std::move(pkt.inputs);
    return req;
  }

  [[nodiscard]] std::string name() const override { return "placement"; }

 private:
  Rng rng_;
  ValueSource values_;
  place::PlacedSchedule schedule_;
  std::size_t cursor_ = 0;
};

}  // namespace

ValueSource::ValueSource(const ScenarioSpec& spec)
    : dist_(spec.value_dist),
      dist_a_(spec.dist_a),
      dist_b_(spec.dist_b),
      codec_(accel::ValueCodec::float32()) {
  if (dist_ == ValueDist::kUniform && !(dist_a_ < dist_b_))
    throw std::invalid_argument("ValueSource: uniform needs dist_a < dist_b");
  if (dist_ != ValueDist::kUniform && dist_b_ <= 0.0)
    throw std::invalid_argument("ValueSource: scale (dist_b) must be > 0");
  if (spec.format == DataFormat::kFixed8) {
    // Fix the quantizer range from the distribution's practical support so
    // every scenario of a campaign shares the same codec (no per-stream
    // calibration — patterns must not depend on the drawn sample).
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
    const auto max_code = static_cast<double>((1 << (spec.fixed_bits - 1)) - 1);
    codec_ = accel::ValueCodec::fixed(
        FixedPointCodec(spec.fixed_bits, range / max_code));
  }
}

std::uint32_t ValueSource::draw_pattern(Rng& rng) {
  double v = 0.0;
  switch (dist_) {
    case ValueDist::kUniform: v = rng.uniform(dist_a_, dist_b_); break;
    case ValueDist::kNormal: v = rng.normal(dist_a_, dist_b_); break;
    case ValueDist::kLaplace: v = rng.laplace(dist_b_); break;
  }
  return codec_.encode(static_cast<float>(v));
}

std::vector<std::uint32_t> ValueSource::draw_patterns(Rng& rng,
                                                      std::size_t count) {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(draw_pattern(rng));
  return out;
}

std::unique_ptr<TrafficGenerator> make_generator(const ScenarioSpec& spec) {
  spec.validate();
  switch (spec.generator) {
    case GeneratorKind::kUniform:
      return std::make_unique<UniformGenerator>(spec);
    case GeneratorKind::kTranspose:
      return std::make_unique<PermutationGenerator>(spec, /*transpose=*/true);
    case GeneratorKind::kBitComplement:
      return std::make_unique<PermutationGenerator>(spec, /*transpose=*/false);
    case GeneratorKind::kHotspot:
      return std::make_unique<HotspotGenerator>(spec);
    case GeneratorKind::kBurst:
      return std::make_unique<BurstGenerator>(spec);
    case GeneratorKind::kReplay:
      return std::make_unique<ReplayGenerator>(spec);
    case GeneratorKind::kPlacement:
      return std::make_unique<PlacementGenerator>(spec);
    case GeneratorKind::kModel:
      break;
  }
  throw std::invalid_argument(
      "make_generator: '" + to_string(spec.generator) +
      "' is not a synthetic generator (model workloads run through "
      "NocDnaPlatform in the campaign runner)");
}

noc::PacketTrace record_schedule(const ScenarioSpec& spec) {
  const std::unique_ptr<TrafficGenerator> gen = make_generator(spec);
  const accel::FlitLayout layout{spec.values_per_flit,
                                 value_bits(spec.format)};
  const noc::MeshShape mesh(spec.rows, spec.cols);
  noc::PacketTrace trace;
  std::uint64_t id = 0;
  while (auto req = gen->next()) {
    noc::TraceEvent e;
    e.packet_id = id++;
    e.src = req->src;
    e.dst = req->dst;
    e.num_flits = accel::flits_needed(
        static_cast<std::uint32_t>(req->weights.size()), /*has_bias=*/false,
        layout);
    e.inject_cycle = req->cycle;
    e.hops = static_cast<std::uint16_t>(mesh.manhattan(req->src, req->dst));
    e.eject_cycle = req->cycle + e.hops + e.num_flits;
    e.weights = std::move(req->weights);
    e.inputs = std::move(req->inputs);
    trace.record(e);
  }
  return trace;
}

}  // namespace nocbt::sim
