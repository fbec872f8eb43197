#pragma once
// Campaign planning layer: the declarative sweep description and its
// deterministic expansion into seeded scenarios, plus the result row type
// every downstream layer exchanges.
//
// A CampaignSpec is the cross product
//   generators x formats x modes x meshes x windows x replicates
// over a base ScenarioSpec that supplies every non-grid knob. Each expanded
// scenario gets a deterministic seed derived from the campaign root seed
// and its *mode-independent* grid position (its traffic stream), so every
// ordering-mode row of one grid point injects the byte-identical
// pre-ordering schedule and mode deltas measure the ordering alone.
//
// The execution core is layered on top of this file, one seam per unit:
//   sim/scenario_runner.h   — run one scenario (both ordering variants)
//   sim/scenario_cache.h    — content-addressed persisted ScenarioResults
//   sim/run_journal.h       — append-only checkpoint/resume journal
//   sim/campaign_executor.h — sharded parallel sweep over the expansion
//   sim/campaign_report.h   — ASCII / CSV / JSON / heatmap / profile output
// Front-ends include the seams they drive; nothing here depends on them.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dnn/sequential.h"
#include "dnn/tensor.h"
#include "hw/energy_model.h"
#include "noc/sim_profiler.h"
#include "sim/scenario.h"

namespace nocbt::sim {

/// One mesh geometry of the grid (MC count only matters for kModel).
struct MeshSpec {
  std::int32_t rows = 4;
  std::int32_t cols = 4;
  std::int32_t mcs = 2;
};

/// Parse "4x4", "8x8mc4" (case-insensitive 'x'/"mc"). Throws on junk and
/// on dimensions beyond 4096 (the node count must fit comfortably in
/// int32 arithmetic).
[[nodiscard]] MeshSpec parse_mesh_spec(const std::string& s);
[[nodiscard]] std::string to_string(const MeshSpec& mesh);

/// The canonical scenario name for one grid point, e.g.
/// "uniform/fx8/O2/4x4mc2/w64". Every grid axis appears — even the MC
/// count synthetic traffic ignores, and the window a model row ignores
/// (expand() gives it the first) — so names are unique across an
/// expansion (expand() additionally appends "/rN" when replicates > 1).
/// Consumers that look rows up by name (bench/fig12_noc_sizes) build
/// names through this helper rather than re-deriving the layout.
[[nodiscard]] std::string scenario_name(GeneratorKind generator,
                                        DataFormat format,
                                        ordering::OrderingMode mode,
                                        const MeshSpec& mesh,
                                        std::uint32_t window);

/// Hooks for model workloads: build the (trained) model / the inference
/// input for a seed. Called once per scenario run, possibly concurrently —
/// factories must be safe to invoke from multiple threads.
struct ModelHooks {
  std::function<dnn::Sequential(std::uint64_t seed)> model;
  std::function<dnn::Tensor(std::uint64_t seed)> input;
  /// Stable fingerprint of what the factories build (e.g.
  /// "builtin-lenet-v1"). Model scenarios are only content-addressable —
  /// cacheable and journalable — when this is non-empty, because the
  /// lambdas themselves cannot be hashed; leave it empty for ad-hoc hooks
  /// and those scenarios simply always re-simulate.
  std::string id;
};

/// Declarative sweep description.
struct CampaignSpec {
  std::string name = "campaign";
  std::uint64_t root_seed = 42;

  std::vector<GeneratorKind> generators{GeneratorKind::kUniform};
  std::vector<DataFormat> formats{DataFormat::kFloat32};
  std::vector<ordering::OrderingMode> modes{
      ordering::OrderingMode::kSeparated};
  std::vector<MeshSpec> meshes{MeshSpec{}};
  std::vector<std::uint32_t> windows{64};
  std::uint32_t replicates = 1;  ///< independent seeds per grid point

  ScenarioSpec base;  ///< non-grid knobs (traffic volume, distribution, ...)
  ModelHooks hooks;   ///< required iff generators contains kModel

  /// The fully-expanded, deterministically-seeded scenario list, in grid
  /// order (generator-major, replicate-minor). A model inference reads
  /// neither the window nor the seed, so model rows are emitted once per
  /// (format, mode, mesh), with the first window and replicate 0's name
  /// and seed.
  [[nodiscard]] std::vector<ScenarioSpec> expand() const;
};

/// Measurements of one scenario. `error` is non-empty when the scenario
/// threw (the campaign keeps going; the row reports the failure).
struct ScenarioResult {
  ScenarioSpec spec;
  std::uint64_t bt_baseline = 0;  ///< in-scope BT under O0 ordering
  std::uint64_t bt_ordered = 0;   ///< in-scope BT under spec.mode
  double reduction = 0.0;         ///< 1 - ordered/baseline (0 when baseline 0)
  /// Measured link energy/power at the spec's pJ point and clock
  /// (hw::EnergyModel over the recorded BT counts; §V-C units). Powers
  /// average each variant's transitions over that variant's own cycles.
  double energy_baseline_pj = 0.0;
  double energy_pj = 0.0;          ///< ordered-run link energy
  double power_baseline_mw = 0.0;
  double power_mw = 0.0;           ///< ordered-run average link power
  std::uint64_t cycles = 0;       ///< drain time of the ordered run
  std::uint64_t packets = 0;      ///< packets delivered (ordered run)
  std::uint64_t flits = 0;        ///< flits delivered (ordered run)
  std::uint64_t peak_backlog = 0; ///< max total source-queue depth observed
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  bool drained = false;           ///< false = hit the max_cycles stall guard
  /// Step-loop profile of the run that timed the ordered variant — for a
  /// synthetic row, the grid point's one timing run (deterministic engine
  /// counters: cycles stepped vs. idle-skipped, component steps run vs.
  /// skipped).
  noc::SimProfile sim;
  /// Host wall-clock, in milliseconds, of the grid point's timing run
  /// (baseline; 0 on a row that reused a timing another row ran) and of
  /// the ordered mode's wire-order replay (ordered; an O0 row repeats its
  /// baseline). NOT deterministic — excluded from operator==, from the
  /// golden-compared CSV/JSON reports, and from the persisted
  /// cache/journal records (cached rows replay with 0 here); surfaced via
  /// write_profile_csv only.
  double wall_ms_baseline = 0.0;
  double wall_ms_ordered = 0.0;
  /// Why engine=auto fell back from the analytical backend to a cycle
  /// engine: the first clashing link and cycle, or the unsupported-config
  /// reason; empty when it did not fall back. Observability only —
  /// excluded from operator==, the CSV/JSON reports and the persisted
  /// records exactly like wall_ms_*; surfaced via write_profile_csv.
  std::string engine_reason;
  /// Per-link measurements of the ordered run (every monitored link, in
  /// link-id order) — the rows of the heatmap CSV.
  std::vector<hw::LinkEnergyRow> links;
  std::string error;
};

[[nodiscard]] bool operator==(const ScenarioResult& a, const ScenarioResult& b);

/// How the executor obtained each row of a sweep — the observability the
/// cache/resume machinery is tested and CI-gated through.
struct ExecutionStats {
  std::size_t grid_total = 0;    ///< scenarios in the full expansion
  std::size_t assigned = 0;      ///< scenarios in this process's shard
  std::size_t simulated = 0;     ///< rows actually run by the engines
  /// Network (cycle-engine) simulations behind the simulated rows: one
  /// per grid point timed on a cycle engine — a synthetic point that fell
  /// back to or forced one, or a model point's O0 inference — plus one per
  /// non-O0 model row's own inference (per shard: each process times the
  /// points its rows carry).
  std::size_t cycle_runs = 0;
  std::size_t cache_hits = 0;    ///< rows served by the scenario cache
  std::size_t journal_hits = 0;  ///< rows skipped via the resume journal
  /// Non-fatal diagnostics (corrupt cache/journal records, each naming the
  /// file and offending record). Front-ends print these to stderr.
  std::vector<std::string> warnings;
};

struct CampaignResult {
  /// Executed rows in grid order. A full (unsharded) run carries one row
  /// per expanded scenario; a shard carries only its assigned subset —
  /// merge_campaign (sim/run_journal.h) reassembles the full sweep.
  std::vector<ScenarioResult> rows;
  ExecutionStats stats;
};

}  // namespace nocbt::sim
