#include "sim/campaign_config.h"

#include <charconv>
#include <fstream>
#include <stdexcept>

#include "common/rng.h"
#include "dnn/models.h"
#include "dnn/synthetic_data.h"
#include "hw/energy_model.h"

namespace nocbt::sim {

namespace {

/// Shortest decimal string that parses back (stod) to exactly `v` — the
/// emission format every double-valued key uses, so an emitted spec file
/// reconstructs bit-identical doubles.
std::string shortest_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{})
    throw std::invalid_argument("shortest_double: cannot format value");
  return std::string(buf, ptr);
}

/// Comma-join applying `render` to each element; rejects an empty axis
/// (split_csv_list would read it back as no values at all).
template <typename T, typename Fn>
std::string join_axis(const std::vector<T>& values, const char* key, Fn render) {
  if (values.empty())
    throw std::invalid_argument("campaign_config_text: grid axis '" +
                                std::string(key) + "' is empty");
  std::string out;
  for (const T& v : values) {
    if (!out.empty()) out += ',';
    out += render(v);
  }
  return out;
}

}  // namespace

const std::set<std::string>& campaign_option_keys() {
  static const std::set<std::string> keys{
      "name",       "seed",        "replicates",  "generators",
      "formats",    "modes",       "meshes",      "windows",
      "packets",    "rate",        "vcs",         "vc_depth",
      "slots",      "fixed_bits",  "dist",        "dist_a",
      "dist_b",     "hotspot_fraction",           "hotspot_node",
      "burst_len",  "burst_gap",   "trace",       "model_seed",
      "input_seed", "max_cycles",  "energy_pj",   "freq_mhz",
      "engine",     "model",       "placement",   "tiles_per_layer"};
  return keys;
}

const std::set<std::string>& campaign_service_option_keys() {
  static const std::set<std::string> keys{"cache_dir", "resume", "shard"};
  return keys;
}

void check_campaign_keys(const Options& opts,
                         const std::set<std::string>& extra) {
  std::set<std::string> known = campaign_option_keys();
  known.insert(extra.begin(), extra.end());
  opts.check_keys(known);
}

ExecutionConfig execution_from_options(const Options& opts) {
  ExecutionConfig exec;
  exec.cache_dir = opts.get_string("cache_dir", "");
  exec.journal_path = opts.get_string("resume", "");
  const std::string shard = opts.get_string("shard", "");
  if (!shard.empty()) exec.shard = parse_shard_spec(shard);
  return exec;
}

CampaignSpec campaign_from_options(const Options& opts) {
  CampaignSpec camp;
  camp.name = opts.get_string("name", "campaign");
  camp.root_seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  camp.replicates =
      static_cast<std::uint32_t>(opts.get_bounded("replicates", 1, 1, 1024));

  camp.generators.clear();
  for (const auto& g : split_csv_list(opts.get_string("generators", "uniform")))
    camp.generators.push_back(parse_generator_kind(g));
  camp.formats.clear();
  for (const auto& f :
       split_csv_list(opts.get_string("formats", "float32,fixed8")))
    camp.formats.push_back(parse_data_format(f));
  camp.modes =
      ordering::parse_ordering_mode_list(opts.get_string("modes", "O0,O1,O2"));
  camp.meshes.clear();
  for (const auto& m : split_csv_list(opts.get_string("meshes", "4x4")))
    camp.meshes.push_back(parse_mesh_spec(m));
  camp.windows.clear();
  for (const auto& w : split_csv_list(opts.get_string("windows", "64"))) {
    std::int64_t parsed = -1;
    try {
      parsed = parse_int_strict(w);
    } catch (const std::exception&) {
      parsed = -1;
    }
    if (parsed < 0 || parsed > 1'000'000)
      throw std::invalid_argument("windows entry '" + w +
                                  "' is not in [0, 1000000]");
    camp.windows.push_back(static_cast<std::uint32_t>(parsed));
  }

  ScenarioSpec& base = camp.base;
  base.packets = static_cast<std::uint32_t>(
      opts.get_bounded("packets", 128, 1, 100'000'000));
  base.injection_rate = opts.get_double("rate", 0.25);
  base.num_vcs = static_cast<std::int32_t>(opts.get_bounded("vcs", 4, 1, 64));
  base.vc_buffer_depth =
      static_cast<std::int32_t>(opts.get_bounded("vc_depth", 4, 1, 1024));
  base.values_per_flit =
      static_cast<unsigned>(opts.get_bounded("slots", 16, 2, 4096));
  base.fixed_bits =
      static_cast<unsigned>(opts.get_bounded("fixed_bits", 8, 2, 8));
  base.value_dist = parse_value_dist(opts.get_string("dist", "laplace"));
  base.dist_a = opts.get_double(
      "dist_a", base.value_dist == ValueDist::kUniform ? -1.0 : 0.0);
  base.dist_b = opts.get_double(
      "dist_b", base.value_dist == ValueDist::kUniform ? 1.0 : 0.2);
  base.hotspot_fraction = opts.get_double("hotspot_fraction", 0.5);
  base.hotspot_node = static_cast<std::int32_t>(
      opts.get_bounded("hotspot_node", -1, -1, 1 << 24));
  base.burst_len = static_cast<std::uint32_t>(
      opts.get_bounded("burst_len", 8, 1, 1'000'000));
  base.burst_gap = static_cast<std::uint32_t>(
      opts.get_bounded("burst_gap", 64, 0, 1'000'000'000));
  base.trace_path = opts.get_string("trace", "");
  base.energy_per_transition_pj =
      hw::parse_energy_point(opts.get_string("energy_pj", "innovus"));
  base.frequency_mhz = opts.get_double("freq_mhz", 125.0);
  if (!(base.frequency_mhz > 0.0))
    throw std::invalid_argument("option 'freq_mhz' must be positive");
  apply_engine_choice(base,
                      parse_engine_choice(opts.get_string("engine", "auto")));
  base.model_seed = static_cast<std::uint64_t>(opts.get_int("model_seed", 42));
  base.input_seed = static_cast<std::uint64_t>(opts.get_int("input_seed", 7));
  base.model = opts.get_string("model", "lenet");
  base.placement = opts.get_string("placement", "rowmajor");
  base.tiles_per_layer = static_cast<std::int32_t>(
      opts.get_bounded("tiles_per_layer", 4, 1, 1 << 20));
  base.max_cycles = static_cast<std::uint64_t>(
      opts.get_bounded("max_cycles", 5'000'000, 1, std::int64_t{1} << 62));

  // Model workload: a small trained-like LeNet (no training — the weight
  // distribution is what matters for BT). Heavyweight trained models go
  // through the library API instead (see bench/fig12_noc_sizes.cpp).
  camp.hooks.model = [](std::uint64_t seed) {
    Rng rng(seed);
    dnn::Sequential model = dnn::build_lenet(rng);
    Rng fill_rng(seed + 1);
    dnn::fill_weights_trained_like(model, fill_rng, 0.04);
    return model;
  };
  camp.hooks.input = [](std::uint64_t seed) {
    dnn::SyntheticDataset data(dnn::SyntheticDataset::Config{}, seed);
    return data.sample(1).images;
  };
  // The fingerprint that makes these hooks content-addressable: bump it if
  // the factories above ever change what they build.
  camp.hooks.id = "builtin-lenet-v1";
  return camp;
}

std::string campaign_config_text(const CampaignSpec& spec) {
  const ScenarioSpec& base = spec.base;
  std::string out;
  out += "# nocbt campaign spec (emitted by campaign_config_text)\n";
  out += "# Re-run with: nocbt_campaign config=THIS_FILE\n";
  const auto kv = [&out](const char* key, const std::string& value) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  };
  kv("name", spec.name);
  kv("seed", std::to_string(spec.root_seed));
  kv("replicates", std::to_string(spec.replicates));
  kv("generators", join_axis(spec.generators, "generators",
                             [](GeneratorKind g) { return to_string(g); }));
  kv("formats", join_axis(spec.formats, "formats",
                          [](DataFormat f) { return to_string(f); }));
  kv("modes", join_axis(spec.modes, "modes", [](ordering::OrderingMode m) {
       return ordering::short_mode_name(m);
     }));
  kv("meshes", join_axis(spec.meshes, "meshes",
                         [](const MeshSpec& m) { return to_string(m); }));
  kv("windows", join_axis(spec.windows, "windows", [](std::uint32_t w) {
       return std::to_string(w);
     }));
  kv("packets", std::to_string(base.packets));
  kv("rate", shortest_double(base.injection_rate));
  kv("vcs", std::to_string(base.num_vcs));
  kv("vc_depth", std::to_string(base.vc_buffer_depth));
  kv("slots", std::to_string(base.values_per_flit));
  kv("fixed_bits", std::to_string(base.fixed_bits));
  kv("dist", to_string(base.value_dist));
  kv("dist_a", shortest_double(base.dist_a));
  kv("dist_b", shortest_double(base.dist_b));
  kv("hotspot_fraction", shortest_double(base.hotspot_fraction));
  kv("hotspot_node", std::to_string(base.hotspot_node));
  kv("burst_len", std::to_string(base.burst_len));
  kv("burst_gap", std::to_string(base.burst_gap));
  // An empty trace path would parse back as "" anyway, but only replay
  // workloads read it — keep spec files for other generators free of it.
  if (!base.trace_path.empty()) kv("trace", base.trace_path);
  kv("model_seed", std::to_string(base.model_seed));
  kv("input_seed", std::to_string(base.input_seed));
  kv("model", base.model);
  kv("placement", base.placement);
  kv("tiles_per_layer", std::to_string(base.tiles_per_layer));
  kv("energy_pj", shortest_double(base.energy_per_transition_pj));
  kv("freq_mhz", shortest_double(base.frequency_mhz));
  kv("engine", to_string(EngineChoice{base.engine_auto, base.engine}));
  kv("max_cycles", std::to_string(base.max_cycles));
  return out;
}

void write_campaign_config(const std::string& path, const CampaignSpec& spec) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw std::runtime_error("write_campaign_config: cannot open " + path);
  out << campaign_config_text(spec);
  if (!out)
    throw std::runtime_error("write_campaign_config: write failed for " +
                             path);
}

}  // namespace nocbt::sim
