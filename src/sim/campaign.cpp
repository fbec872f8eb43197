#include "sim/campaign.h"

#include <cctype>
#include <stdexcept>
#include <utility>

namespace nocbt::sim {

namespace {

/// SplitMix64 finalizer: spreads (root seed, grid index) into independent
/// per-scenario seeds. Depends only on the scenario's grid position, never
/// on worker scheduling.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index) {
  std::uint64_t z = root + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string short_format(DataFormat format) {
  return format == DataFormat::kFloat32 ? "fp32" : "fx8";
}

}  // namespace

MeshSpec parse_mesh_spec(const std::string& s) {
  // "<rows>x<cols>[mc<count>]", e.g. "4x4" or "8x8mc4".
  const auto bad = [&]() -> std::invalid_argument {
    return std::invalid_argument("parse_mesh_spec: expected RxC[mcN], got '" +
                                 s + "'");
  };
  std::size_t pos = 0;
  const auto read_int = [&]() -> std::int32_t {
    if (pos >= s.size() || !std::isdigit(static_cast<unsigned char>(s[pos])))
      throw bad();
    std::int32_t v = 0;
    while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
      v = v * 10 + (s[pos] - '0');
      if (v > 4096) throw bad();  // keeps rows*cols safely inside int32
      ++pos;
    }
    return v;
  };
  MeshSpec mesh;
  mesh.rows = read_int();
  if (pos >= s.size() || (s[pos] != 'x' && s[pos] != 'X')) throw bad();
  ++pos;
  mesh.cols = read_int();
  if (pos != s.size()) {
    if (s.compare(pos, 2, "mc") != 0 && s.compare(pos, 2, "MC") != 0)
      throw bad();
    pos += 2;
    mesh.mcs = read_int();
    if (pos != s.size()) throw bad();
  }
  return mesh;
}

std::string to_string(const MeshSpec& mesh) {
  return std::to_string(mesh.rows) + "x" + std::to_string(mesh.cols) +
         (mesh.mcs != 2 ? "mc" + std::to_string(mesh.mcs) : std::string());
}

std::string scenario_name(GeneratorKind generator, DataFormat format,
                          ordering::OrderingMode mode, const MeshSpec& mesh,
                          std::uint32_t window) {
  return to_string(generator) + "/" + short_format(format) + "/" +
         ordering::short_mode_name(mode) + "/" + std::to_string(mesh.rows) + "x" +
         std::to_string(mesh.cols) + "mc" + std::to_string(mesh.mcs) + "/w" +
         std::to_string(window);
}

std::vector<ScenarioSpec> CampaignSpec::expand() const {
  std::vector<ScenarioSpec> out;
  // Seeds are derived from the scenario's *mode-independent* grid position
  // (its traffic stream): every mode row of one (generator, format, mesh,
  // window, replicate) point injects the byte-identical pre-ordering
  // schedule, so mode deltas measure the ordering alone — and the runner's
  // schedule cache materializes each stream once per campaign.
  for (std::size_t gi = 0; gi < generators.size(); ++gi)
    for (std::size_t fi = 0; fi < formats.size(); ++fi)
      for (const ordering::OrderingMode mode : modes)
        for (std::size_t mi = 0; mi < meshes.size(); ++mi)
          for (std::size_t wi = 0; wi < windows.size(); ++wi)
            for (std::uint32_t rep = 0; rep < replicates; ++rep) {
              const MeshSpec& mesh = meshes[mi];
              const std::uint64_t stream =
                  ((gi * formats.size() + fi) * meshes.size() + mi) *
                      windows.size() * replicates +
                  wi * replicates + rep;
              ScenarioSpec spec = base;
              spec.generator = generators[gi];
              spec.format = formats[fi];
              spec.mode = mode;
              spec.rows = mesh.rows;
              spec.cols = mesh.cols;
              spec.num_mcs = mesh.mcs;
              spec.window = windows[wi];
              spec.seed = derive_seed(root_seed, stream);
              spec.name = scenario_name(generators[gi], formats[fi], mode,
                                        mesh, windows[wi]);
              if (replicates > 1) spec.name += "/r" + std::to_string(rep);
              out.push_back(std::move(spec));
            }
  return out;
}

bool operator==(const ScenarioResult& a, const ScenarioResult& b) {
  return a.spec.name == b.spec.name && a.spec.seed == b.spec.seed &&
         a.bt_baseline == b.bt_baseline && a.bt_ordered == b.bt_ordered &&
         a.reduction == b.reduction &&
         a.energy_baseline_pj == b.energy_baseline_pj &&
         a.energy_pj == b.energy_pj &&
         a.power_baseline_mw == b.power_baseline_mw &&
         a.power_mw == b.power_mw && a.cycles == b.cycles &&
         a.packets == b.packets && a.flits == b.flits &&
         a.peak_backlog == b.peak_backlog &&
         a.avg_latency == b.avg_latency && a.avg_hops == b.avg_hops &&
         a.drained == b.drained && a.sim == b.sim && a.links == b.links &&
         a.error == b.error;
  // wall_ms_* are deliberately not compared: wall-clock is the one
  // nondeterministic measurement a scenario carries. engine_reason is
  // observability that cache and journal records do not persist.
}

}  // namespace nocbt::sim
