#pragma once
// The benchmark's workloads: each one is a campaign sweep or a
// co-optimizer search built from a seed. The library only ever sees the
// generated spec; the seed sets the campaign root_seed and, for the search,
// the anneal opt_seed.

#include <cstdint>
#include <string>
#include <vector>

#include "opt/optimizer.h"
#include "opt/search_space.h"
#include "sim/campaign.h"

namespace perfbench {

enum class WorkloadKind {
  kSweep,   ///< cold run_campaign + json_report
  kRerun,   ///< rerun served entirely from a cache_dir a cold pass filled
  kCoopt,   ///< opt::run_coopt
};

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kSweep;
  unsigned threads = 1;
  /// The sweep (campaign workloads) or the evaluator template (kCoopt).
  nocbt::sim::CampaignSpec campaign;
  nocbt::opt::SearchSpace space;    ///< kCoopt only
  /// kCoopt: the searches one pass runs side by side, one per thread.
  std::vector<nocbt::opt::CoOptConfig> searches;
};

/// Build the named workload for `seed`. `small` shrinks traffic, replicates
/// and search steps for the smoke test while keeping the layer mix. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool small);

}  // namespace perfbench
