#include "sim/scenario.h"

#include <stdexcept>

#include "dnn/zoo.h"
#include "place/policy.h"

namespace nocbt::sim {

std::string to_string(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kUniform: return "uniform";
    case GeneratorKind::kTranspose: return "transpose";
    case GeneratorKind::kBitComplement: return "bitcomp";
    case GeneratorKind::kHotspot: return "hotspot";
    case GeneratorKind::kBurst: return "burst";
    case GeneratorKind::kReplay: return "replay";
    case GeneratorKind::kModel: return "model";
    case GeneratorKind::kPlacement: return "placement";
  }
  return "?";
}

GeneratorKind parse_generator_kind(const std::string& s) {
  if (s == "uniform" || s == "uniform-random") return GeneratorKind::kUniform;
  if (s == "transpose") return GeneratorKind::kTranspose;
  if (s == "bitcomp" || s == "bit-complement")
    return GeneratorKind::kBitComplement;
  if (s == "hotspot") return GeneratorKind::kHotspot;
  if (s == "burst") return GeneratorKind::kBurst;
  if (s == "replay") return GeneratorKind::kReplay;
  if (s == "model" || s == "lenet") return GeneratorKind::kModel;
  if (s == "placement" || s == "placed") return GeneratorKind::kPlacement;
  throw std::invalid_argument(
      "parse_generator_kind: unknown generator '" + s +
      "' (want uniform | transpose | bitcomp | hotspot | burst | replay | "
      "model | placement)");
}

std::string to_string(ValueDist dist) {
  switch (dist) {
    case ValueDist::kUniform: return "uniform";
    case ValueDist::kNormal: return "normal";
    case ValueDist::kLaplace: return "laplace";
  }
  return "?";
}

ValueDist parse_value_dist(const std::string& s) {
  if (s == "uniform") return ValueDist::kUniform;
  if (s == "normal" || s == "gaussian") return ValueDist::kNormal;
  if (s == "laplace") return ValueDist::kLaplace;
  throw std::invalid_argument("parse_value_dist: unknown distribution '" + s +
                              "' (want uniform | normal | laplace)");
}

EngineChoice parse_engine_choice(const std::string& s) {
  if (s == "auto") return EngineChoice{};
  try {
    return EngineChoice{false, noc::parse_sim_engine(s)};
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "parse_engine_choice: unknown engine '" + s +
        "' (want auto | active | fullscan | analytical)");
  }
}

std::string to_string(const EngineChoice& choice) {
  return choice.auto_select ? "auto" : noc::to_string(choice.engine);
}

void apply_engine_choice(ScenarioSpec& spec, const EngineChoice& choice) {
  spec.engine_auto = choice.auto_select;
  if (!choice.auto_select) spec.engine = choice.engine;
}

noc::NocConfig ScenarioSpec::noc_config() const {
  noc::NocConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.num_vcs = num_vcs;
  cfg.vc_buffer_depth = vc_buffer_depth;
  cfg.flit_payload_bits = values_per_flit * value_bits(format);
  cfg.engine = engine;
  // Synthetic patterns never emit src == dst, so reject it loudly — except
  // under replay, where a recorded trace may legitimately contain
  // self-delivered packets.
  cfg.allow_self_traffic = generator == GeneratorKind::kReplay;
  return cfg;
}

void ScenarioSpec::validate() const {
  // Overflow-safe mesh-size gate before anything multiplies rows * cols in
  // int32 (node_count, task mapping, router construction).
  if (rows < 1 || cols < 1 ||
      static_cast<std::int64_t>(rows) * cols > (std::int64_t{1} << 24))
    throw std::invalid_argument(
        "ScenarioSpec: mesh dimensions out of range (max 2^24 nodes)");
  // Negated tests so NaN fails too. Checked before the model-workload early
  // return: every scenario's BT counts get converted to energy/power.
  if (!(energy_per_transition_pj > 0.0) || !(frequency_mhz > 0.0))
    throw std::invalid_argument(
        "ScenarioSpec: energy_per_transition_pj and frequency_mhz must be "
        "positive");
  if (max_cycles < 1)
    throw std::invalid_argument("ScenarioSpec: max_cycles must be >= 1");
  // The flit geometry and the quantizer width shape model rows too.
  if (format == DataFormat::kFixed8 &&
      (fixed_bits < 2 || fixed_bits > value_bits(DataFormat::kFixed8)))
    throw std::invalid_argument(
        "ScenarioSpec: fixed_bits must be in [2, 8] so patterns fit the "
        "fixed-8 flit slot");
  if (values_per_flit < 2 || values_per_flit % 2 != 0)
    throw std::invalid_argument(
        "ScenarioSpec: values_per_flit must be even and >= 2");
  if (generator == GeneratorKind::kModel) {
    if (!engine_auto && engine == noc::SimEngine::kAnalytical)
      throw std::invalid_argument(
          "ScenarioSpec: model workloads inject reactively (sinks respond "
          "to deliveries) and need a cycle engine — engine=analytical "
          "cannot replay them; use engine=auto, active or fullscan");
    if (num_mcs < 1 || num_mcs >= rows * cols)
      throw std::invalid_argument("ScenarioSpec: bad MC count for model workload");
    noc::NocConfig cfg = noc_config();
    cfg.allow_self_traffic = true;  // platform MCs self-deliver result packets
    cfg.validate();
    return;
  }
  noc_config().validate();
  if (window < 1)
    throw std::invalid_argument("ScenarioSpec: window must be >= 1 pair");
  if (packets < 1)
    throw std::invalid_argument("ScenarioSpec: packets must be >= 1");
  // Written as a negated in-range test so NaN fails it too; the lower
  // bound keeps 2.0/rate (the mean interarrival) finite and castable.
  if (!(injection_rate >= 1e-9 && injection_rate <= 1e9))
    throw std::invalid_argument(
        "ScenarioSpec: injection_rate must be in [1e-9, 1e9]");
  if (!(dist_b == dist_b) || !(dist_a == dist_a))  // NaN gate
    throw std::invalid_argument("ScenarioSpec: dist_a/dist_b must not be NaN");
  if (rows * cols < 2)
    throw std::invalid_argument(
        "ScenarioSpec: synthetic traffic needs >= 2 nodes");
  if (generator == GeneratorKind::kTranspose && rows != cols)
    throw std::invalid_argument(
        "ScenarioSpec: transpose traffic needs a square mesh");
  if (generator == GeneratorKind::kHotspot &&
      !(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0))
    throw std::invalid_argument(
        "ScenarioSpec: hotspot_fraction must be in [0, 1]");
  if (generator == GeneratorKind::kHotspot &&
      (hotspot_node < -1 || hotspot_node >= rows * cols))
    throw std::invalid_argument(
        "ScenarioSpec: hotspot_node " + std::to_string(hotspot_node) +
        " outside the " + std::to_string(rows) + "x" + std::to_string(cols) +
        " mesh (want -1 for the mesh center, or a node id in [0, " +
        std::to_string(rows * cols - 1) + "])");
  if (generator == GeneratorKind::kBurst && burst_len < 1)
    throw std::invalid_argument("ScenarioSpec: burst_len must be >= 1");
  if (generator == GeneratorKind::kReplay && trace_path.empty())
    throw std::invalid_argument("ScenarioSpec: replay needs trace_path");
  if (generator == GeneratorKind::kPlacement) {
    if (num_mcs < 1 || num_mcs >= rows * cols)
      throw std::invalid_argument(
          "ScenarioSpec: bad MC count for placement workload");
    // Every op's tiles must land on distinct PEs: beyond the PE count the
    // policies' wrap-around indexing would co-locate two tiles of the same
    // layer, so gate the knob against the mesh's PE budget up front.
    const std::int32_t pe_count = rows * cols - num_mcs;
    if (tiles_per_layer < 1 || tiles_per_layer > pe_count)
      throw std::invalid_argument(
          "ScenarioSpec: tiles_per_layer " + std::to_string(tiles_per_layer) +
          " for model '" + model + "' does not fit the " +
          std::to_string(rows) + "x" + std::to_string(cols) + " mesh's " +
          std::to_string(pe_count) + " PE tiles (" + std::to_string(num_mcs) +
          " of " + std::to_string(rows * cols) +
          " nodes are memory controllers; want a value in [1, " +
          std::to_string(pe_count) + "])");
    (void)dnn::zoo_model_spec(model);    // throws listing the zoo names
    (void)place::policies().get(placement);  // throws listing the policies
  }
}

}  // namespace nocbt::sim
