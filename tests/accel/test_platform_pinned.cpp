// Pinned LeNet inferences on the accelerator platform. Model runs are the
// traffic that injects from inside a delivery callback: each data packet a
// PE receives makes its sink send a result packet back to the memory
// controller from the PE's own NI, in the middle of Network::step(). Both
// cycle engines run that one step loop, so a change to it that moves both
// engines alike (the visiting order, say) passes the engine differential
// suites; these digests see it. They were recorded from the step loop that
// kept its active set in sorted id vectors, before it moved to component
// bit masks. (An injection from another node's NI mid-step is pinned by
// ActiveSetEngine.MidStepInjectionFromAnotherNiMatchesFullScan.)
//
// Each digest hashes one inference: every layer's BT, cycles and data
// flits; the run's totals and delivery counters; every link's flit and BT
// counters; every delivery in trace order; and the engine's cycles_stepped
// and components_stepped (so each engine has its own digest).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "accel/platform.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dnn/models.h"
#include "dnn/synthetic_data.h"

namespace nocbt::accel {
namespace {

using ordering::OrderingMode;

struct PinnedCase {
  const char* name;
  std::int32_t rows;
  std::int32_t cols;
  std::int32_t mcs;
  DataFormat format;
  OrderingMode mode;
  const char* active_digest;
  const char* fullscan_digest;
};

std::string run_digest(const PinnedCase& c, noc::SimEngine engine) {
  Rng rng(42);
  dnn::Sequential model = dnn::build_lenet(rng);
  dnn::fill_weights_trained_like(model, rng, 0.05);
  dnn::SyntheticDataset data(dnn::SyntheticDataset::Config{}, 7);
  const dnn::Tensor input = data.sample(1).images;

  AccelConfig cfg =
      AccelConfig::defaults(c.format, c.mode, c.rows, c.cols, c.mcs);
  cfg.noc.engine = engine;
  NocDnaPlatform platform(cfg, model);
  const InferenceResult result = platform.run(input);

  StableHash h;
  for (const LayerRunStats& layer : result.layers) {
    h.add(layer.bt);
    h.add(layer.cycles);
    h.add(layer.data_flits);
  }
  h.add(result.total_cycles);
  h.add(result.bt_total);
  h.add(result.bt_all_links);
  h.add(result.data_packets);
  h.add(result.result_packets);
  h.add(result.noc_stats.packets_delivered);
  h.add(result.noc_stats.flits_delivered);
  for (const noc::LinkObservation& link : result.links) {
    h.add(link.flits);
    h.add(link.transitions);
  }
  for (const noc::TraceEvent& e : result.trace.events()) {
    h.add(e.packet_id);
    h.add(e.src);
    h.add(e.dst);
    h.add(e.num_flits);
    h.add(e.inject_cycle);
    h.add(e.eject_cycle);
    h.add(static_cast<std::uint32_t>(e.hops));
  }
  h.add(result.noc_stats.sim.cycles_stepped);
  h.add(result.noc_stats.sim.components_stepped);
  return h.hex();
}

constexpr DataFormat F8 = DataFormat::kFixed8;
constexpr DataFormat F32 = DataFormat::kFloat32;
constexpr OrderingMode O0 = OrderingMode::kBaseline;
constexpr OrderingMode O2 = OrderingMode::kSeparated;

const PinnedCase kCases[] = {
    // name, mesh, mcs, format, mode, digests
    {"4x4mc2_fixed8_O0", 4, 4, 2, F8, O0,
     "89e234b8498716775942cf1ec9342868",
     "14730c4742ca4639fd0d6e4f4ec97fe2"},
    {"4x4mc2_fixed8_O2", 4, 4, 2, F8, O2,
     "486ff150a8f7e1b28e7dd664ab23c2ed",
     "42f0e15e38e1406c1626bb979c7bce57"},
    {"4x4mc2_float32_O0", 4, 4, 2, F32, O0,
     "a18aa86c3106c3f76806f836b4356b78",
     "81eb746271ee5eb9ec3c24a9e844f4f2"},
    {"4x4mc2_float32_O2", 4, 4, 2, F32, O2,
     "945288a4c2713dc5dd3476b3e7c81af2",
     "84bd9e82d352faff6e9f732651ef94ec"},
    {"6x6mc4_fixed8_O0", 6, 6, 4, F8, O0,
     "86a7fee38be37b915cac196113d6c7ce",
     "7c1539b9a0505ed57d5e59cb86234942"},
    {"6x6mc4_fixed8_O2", 6, 6, 4, F8, O2,
     "60ab5f087bcd166f37a09eb92bfc33f8",
     "42436cee8975805bf9b9edf2acded51c"},
    {"6x6mc4_float32_O0", 6, 6, 4, F32, O0,
     "b1c3f10f267256df5b978115b79b1478",
     "4e3009610aefddeb78b9bbab90d7ff9c"},
    {"6x6mc4_float32_O2", 6, 6, 4, F32, O2,
     "bab3e6f7f9b960e31750d77dfba33aa4",
     "cb3df71c25e33327fa0011f2a6b545b0"},
};

TEST(PlatformPinned, LenetInferencesMatchPinnedDigests) {
  for (const PinnedCase& c : kCases) {
    EXPECT_EQ(run_digest(c, noc::SimEngine::kActiveSet), c.active_digest)
        << c.name << " (active-set)";
    EXPECT_EQ(run_digest(c, noc::SimEngine::kFullScan), c.fullscan_digest)
        << c.name << " (full-scan)";
  }
}

}  // namespace
}  // namespace nocbt::accel
