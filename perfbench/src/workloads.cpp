#include "workloads.h"

#include <stdexcept>

#include "ordering/ordering.h"
#include "place/policy.h"

namespace perfbench {

using namespace nocbt;

namespace {

sim::CampaignSpec all_modes_both_formats(const std::string& name,
                                         std::uint64_t seed) {
  sim::CampaignSpec camp;
  camp.name = "perfbench_" + name;
  camp.root_seed = seed;
  camp.modes = ordering::all_ordering_modes();
  camp.formats = {DataFormat::kFixed8, DataFormat::kFloat32};
  camp.meshes = {sim::parse_mesh_spec("8x8mc4")};
  return camp;
}

// Contended synthetic traffic: every row's analytical attempt is rejected
// and the cycle engine runs, so NoC timing dominates.
Workload sweep_contended(std::uint64_t seed, bool small) {
  Workload w{"sweep_contended", WorkloadKind::kSweep, 2, {}, {}, {}};
  w.campaign = all_modes_both_formats(w.name, seed);
  w.campaign.generators = {sim::GeneratorKind::kUniform,
                           sim::GeneratorKind::kHotspot};
  w.campaign.windows = {64};
  w.campaign.base.packets = small ? 128 : 1024;
  w.campaign.base.injection_rate = 0.5;
  return w;
}

// One packet every 64 cycles: every row is proven congestion-free and
// served analytically, so ordering dominates and the cycle engine is idle.
Workload sweep_zeroload(std::uint64_t seed, bool small) {
  Workload w{"sweep_zeroload", WorkloadKind::kSweep, 2, {}, {}, {}};
  w.campaign = all_modes_both_formats(w.name, seed);
  w.campaign.generators = {sim::GeneratorKind::kBurst};
  w.campaign.windows = {64, 256};
  w.campaign.base.packets = small ? 128 : 1024;
  w.campaign.base.burst_len = 1;
  w.campaign.base.burst_gap = 64;
  return w;
}

// Many tiny rows, so the per-row persistence, lookup and report costs
// dominate instead of simulation.
sim::CampaignSpec service_grid(const std::string& name, std::uint64_t seed,
                               bool small) {
  sim::CampaignSpec camp = all_modes_both_formats(name, seed);
  camp.generators = {
      sim::GeneratorKind::kUniform, sim::GeneratorKind::kTranspose,
      sim::GeneratorKind::kBitComplement, sim::GeneratorKind::kHotspot,
      sim::GeneratorKind::kBurst};
  camp.meshes = {sim::parse_mesh_spec("4x4"), sim::parse_mesh_spec("8x8mc4")};
  camp.windows = {8, 16};
  camp.replicates = small ? 2 : 16;
  camp.base.packets = 4;
  return camp;
}

// The only workload through src/opt: placed ResNet traffic with ragged
// windows (per-request ordering path) and contended PE-to-PE transfers.
// Four tiles per layer keep one search near 3 s on a 4-core x86-64 host; at
// eight the cost of a pass depended on which candidates the seed's walk
// visited. Two independent searches run side by side: a single one rode one
// core and spread twice as much from run to run as the two-thread sweeps.
Workload coopt_placed(std::uint64_t seed, bool small) {
  Workload w{"coopt_placed", WorkloadKind::kCoopt, 2, {}, {}, {}};
  w.campaign = all_modes_both_formats(w.name, seed);
  w.campaign.generators = {sim::GeneratorKind::kPlacement};
  w.campaign.windows = {32, 64};
  w.campaign.base.model = "resnet";
  w.campaign.base.tiles_per_layer = 4;
  if (small) {
    w.campaign.modes = {ordering::OrderingMode::kBaseline,
                        ordering::OrderingMode::kAffiliated,
                        ordering::OrderingMode::kHybrid};
    w.campaign.windows = {32};
    w.campaign.formats = {DataFormat::kFixed8};
    w.campaign.base.tiles_per_layer = 2;
  }
  w.space = opt::SearchSpace::from_campaign(w.campaign,
                                            place::registered_policy_names());
  for (std::uint64_t k = 0; k < w.threads; ++k) {
    opt::CoOptConfig search;
    search.optimizer = "anneal";
    search.seed = seed + k * 0x9E3779B97F4A7C15ull;
    search.max_evals = small ? 4 : 16;
    w.searches.push_back(search);
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool small) {
  if (name == "sweep_contended") return sweep_contended(seed, small);
  if (name == "sweep_zeroload") return sweep_zeroload(seed, small);
  if (name == "coopt_placed") return coopt_placed(seed, small);
  if (name == "service_rerun")
    return Workload{name, WorkloadKind::kRerun, 2,
                    service_grid(name, seed, small), {}, {}};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
