// Differential suite: time once, score many, against the two-run
// algorithm it replaced.
//
// The runner simulates each synthetic grid point once (O0 payloads) and
// scores every other ordering mode by replaying its payloads over the
// recorded wire order. The reference below keeps the original algorithm:
// every variant runs its own fresh Network or AnalyticalEngine, with
// payloads built only from public calls (mode_strategy, apply_permutation,
// pack_half_half). Every row must equal the reference under operator== —
// BT, energy, timing, transport stats, SimProfile and per-link rows.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/flitization.h"
#include "common/rng.h"
#include "hw/energy_model.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"
#include "noc/trace.h"
#include "noc/wire_order.h"
#include "ordering/ordering.h"
#include "ordering/strategy.h"
#include "sim/campaign.h"
#include "sim/campaign_executor.h"
#include "sim/scenario_runner.h"
#include "sim/traffic_gen.h"

namespace nocbt::sim {
namespace {

using ordering::OrderingMode;

// ---- the reference: one fresh engine run per variant ---------------------

struct RefOutcome {
  std::uint64_t bt = 0;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t peak_backlog = 0;
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  bool drained = false;
  noc::SimProfile sim;
  std::vector<noc::LinkObservation> links;
};

std::vector<BitVec> reference_payloads(const InjectionRequest& req,
                                       DataFormat format,
                                       const accel::FlitLayout& layout,
                                       OrderingMode mode) {
  using ordering::apply_permutation;
  std::vector<std::uint32_t> weights = req.weights;
  std::vector<std::uint32_t> inputs = req.inputs;
  if (!ordering::mode_is_baseline(mode)) {
    const ordering::OrderingStrategy& strategy = ordering::mode_strategy(mode);
    const std::span<const std::uint32_t> w(req.weights);
    const std::span<const std::uint32_t> in(req.inputs);
    const auto w_perm = strategy.order(w, format);
    const auto in_perm =
        ordering::mode_is_separated(mode) ? strategy.order(in, format) : w_perm;
    weights = apply_permutation(w, std::span<const std::uint32_t>(w_perm));
    inputs = apply_permutation(in, std::span<const std::uint32_t>(in_perm));
  }
  return accel::pack_half_half(inputs, weights, std::nullopt, layout);
}

RefOutcome reference_variant(const ScenarioSpec& spec,
                             const std::vector<InjectionRequest>& schedule,
                             OrderingMode mode) {
  const accel::FlitLayout layout{spec.values_per_flit,
                                 value_bits(spec.format)};
  std::vector<std::vector<BitVec>> payloads;
  for (const InjectionRequest& req : schedule)
    payloads.push_back(reference_payloads(req, spec.format, layout, mode));

  RefOutcome out;
  if (spec.engine_auto || spec.engine == noc::SimEngine::kAnalytical) {
    noc::AnalyticalEngine eng(spec.noc_config());
    for (std::size_t i = 0; i < schedule.size(); ++i)
      eng.inject(schedule[i].cycle, schedule[i].src, schedule[i].dst,
                 payloads[i]);
    if (eng.run()) {
      out.bt = eng.bt().total();
      out.cycles = eng.cycle();
      out.packets = eng.stats().packets_delivered;
      out.flits = eng.stats().flits_delivered;
      out.avg_latency = eng.stats().packet_latency.mean();
      out.avg_hops = eng.stats().packet_hops.mean();
      out.drained = true;
      out.sim = eng.stats().sim;
      out.links = eng.bt().snapshot();
      return out;
    }
    if (!spec.engine_auto)
      throw std::runtime_error(
          "engine=analytical cannot evaluate this schedule exactly: " +
          eng.contention_detail() +
          " (engine=auto falls back to a cycle engine instead)");
  }
  noc::NocConfig cfg = spec.noc_config();
  if (cfg.engine == noc::SimEngine::kAnalytical)
    cfg.engine = noc::SimEngine::kActiveSet;
  noc::Network net(cfg);
  const std::int32_t nodes = spec.rows * spec.cols;
  for (std::int32_t node = 0; node < nodes; ++node)
    net.set_sink(node, nullptr);
  std::size_t next = 0;
  std::uint64_t active_steps = 0;
  while (next < schedule.size() || !net.idle()) {
    if (active_steps > spec.max_cycles) {
      out.sim = net.stats().sim;
      return out;
    }
    if (next < schedule.size() && schedule[next].cycle > net.cycle() &&
        net.idle())
      net.advance_idle(schedule[next].cycle - net.cycle());
    while (next < schedule.size() && schedule[next].cycle <= net.cycle()) {
      net.inject(schedule[next].src, schedule[next].dst,
                 std::move(payloads[next]));
      ++next;
    }
    net.step();
    ++active_steps;
    std::uint64_t backlog = 0;
    for (std::int32_t node = 0; node < nodes; ++node)
      backlog += net.injection_backlog(node);
    out.peak_backlog = std::max<std::uint64_t>(out.peak_backlog, backlog);
  }
  out.bt = net.bt().total();
  out.cycles = net.cycle();
  out.packets = net.stats().packets_delivered;
  out.flits = net.stats().flits_delivered;
  out.avg_latency = net.stats().packet_latency.mean();
  out.avg_hops = net.stats().packet_hops.mean();
  out.drained = true;
  out.sim = net.stats().sim;
  out.links = net.bt().snapshot();
  return out;
}

ScenarioResult reference_row(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.spec = spec;
  try {
    spec.validate();
    const InjectionSchedule schedule = generate_schedule(spec);
    const RefOutcome baseline =
        reference_variant(spec, schedule, OrderingMode::kBaseline);
    const RefOutcome ordered =
        spec.mode == OrderingMode::kBaseline
            ? baseline
            : reference_variant(spec, schedule, spec.mode);
    const hw::EnergyModel energy(hw::EnergyModelConfig{
        spec.energy_per_transition_pj, spec.frequency_mhz});
    result.bt_baseline = baseline.bt;
    result.bt_ordered = ordered.bt;
    result.reduction =
        baseline.bt > 0 ? 1.0 - static_cast<double>(ordered.bt) /
                                    static_cast<double>(baseline.bt)
                        : 0.0;
    result.energy_baseline_pj = energy.energy_pj(baseline.bt);
    result.energy_pj = energy.energy_pj(ordered.bt);
    result.power_baseline_mw = energy.power_mw(baseline.bt, baseline.cycles);
    result.power_mw = energy.power_mw(ordered.bt, ordered.cycles);
    result.links = energy.annotate(ordered.links);
    result.cycles = ordered.cycles;
    result.packets = ordered.packets;
    result.flits = ordered.flits;
    result.peak_backlog = ordered.peak_backlog;
    result.avg_latency = ordered.avg_latency;
    result.avg_hops = ordered.avg_hops;
    result.drained = baseline.drained && ordered.drained;
    result.sim = ordered.sim;
    if (!result.drained)
      result.error = "scenario '" + spec.name +
                     "' hit the max_cycles stall guard (" +
                     std::to_string(spec.max_cycles) +
                     " active cycles) before draining";
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

// ---- fixtures ---------------------------------------------------------------

/// Saturating uniform traffic: heavy VC interleaving and backpressure.
ScenarioSpec contended_spec() {
  ScenarioSpec spec;
  spec.name = "diff";
  spec.generator = GeneratorKind::kUniform;
  spec.format = DataFormat::kFixed8;
  spec.window = 24;  // 3 flits per packet
  spec.packets = 48;
  spec.injection_rate = 2.0;
  spec.seed = 4242;
  return spec;
}

/// Mean 5000-cycle gaps: congestion-free, served analytically under auto.
ScenarioSpec sparse_spec() {
  ScenarioSpec spec = contended_spec();
  spec.packets = 24;
  spec.injection_rate = 2e-4;
  spec.burst_len = 1;
  spec.burst_gap = 300;
  return spec;
}

void apply_engine(ScenarioSpec& spec, const std::string& engine) {
  apply_engine_choice(spec, parse_engine_choice(engine));
}

/// run_scenario must equal the reference row, error rows included.
void expect_matches_reference(const ScenarioSpec& spec) {
  const ScenarioResult row = run_scenario(spec, ModelHooks{});
  const ScenarioResult ref = reference_row(spec);
  EXPECT_TRUE(row == ref) << spec.name << " " << to_string(spec.generator)
                          << " " << ordering::short_mode_name(spec.mode)
                          << ": row error '" << row.error << "', reference '"
                          << ref.error << "', bt " << row.bt_ordered << " vs "
                          << ref.bt_ordered << ", cycles " << row.cycles
                          << " vs " << ref.cycles;
}

std::string payload_trace_path() {
  // Ragged payload windows (the per-request ordering path), a
  // self-delivered packet, and two packets sharing an injection cycle.
  Rng rng(77);
  noc::PacketTrace trace;
  const auto event = [&](std::uint64_t id, std::int32_t src, std::int32_t dst,
                         std::uint64_t cycle, std::size_t pairs) {
    noc::TraceEvent e;
    e.packet_id = id;
    e.src = src;
    e.dst = dst;
    e.num_flits = static_cast<std::uint32_t>((pairs + 7) / 8);
    e.inject_cycle = cycle;
    e.eject_cycle = cycle;  // load_csv rejects an ejection before injection
    for (std::size_t k = 0; k < pairs; ++k) {
      e.weights.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
      e.inputs.push_back(static_cast<std::uint32_t>(rng.bits64() & 0xFF));
    }
    trace.record(e);
  };
  event(1, 0, 15, 0, 20);
  event(2, 5, 5, 1, 9);  // self-delivered
  event(3, 12, 3, 1, 24);
  event(4, 7, 8, 2, 13);
  event(5, 3, 12, 2, 17);
  event(6, 15, 0, 40, 8);
  const std::string path = ::testing::TempDir() + "/replay_differential.csv";
  trace.dump_csv(path);
  return path;
}

// ---- the suite ---------------------------------------------------------------

TEST(ReplayDifferential, EveryModeBothFormats) {
  for (const DataFormat format : {DataFormat::kFixed8, DataFormat::kFloat32})
    for (const OrderingMode mode : ordering::all_ordering_modes()) {
      ScenarioSpec spec = contended_spec();
      spec.format = format;
      spec.mode = mode;
      expect_matches_reference(spec);
    }
}

class GeneratorDifferential : public ::testing::TestWithParam<GeneratorKind> {};

TEST_P(GeneratorDifferential, EveryEngineMatchesReference) {
  for (const std::string engine : {"auto", "active", "fullscan"})
    for (const OrderingMode mode :
         {OrderingMode::kBaseline, OrderingMode::kSeparated,
          OrderingMode::kAffiliated, OrderingMode::kHybrid}) {
      ScenarioSpec spec = contended_spec();
      spec.generator = GetParam();
      spec.mode = mode;
      spec.injection_rate = 0.5;
      if (GetParam() == GeneratorKind::kPlacement) {
        spec.model = "lenet";
        spec.tiles_per_layer = 2;
        spec.window = 32;
      }
      if (GetParam() == GeneratorKind::kReplay)
        spec.trace_path = payload_trace_path();
      apply_engine(spec, engine);
      expect_matches_reference(spec);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorDifferential,
    ::testing::Values(GeneratorKind::kUniform, GeneratorKind::kTranspose,
                      GeneratorKind::kBitComplement, GeneratorKind::kHotspot,
                      GeneratorKind::kBurst, GeneratorKind::kPlacement,
                      GeneratorKind::kReplay),
    [](const auto& info) { return to_string(info.param); });

TEST(ReplayDifferential, ContendedVcAndBufferSettings) {
  // One VC or one-flit buffers force backpressure and (with 4 VCs) flit
  // interleaving on the links; depth 1 also makes the analytical backend
  // refuse the config under auto.
  for (const std::int32_t vcs : {1, 4})
    for (const std::int32_t depth : {1, 4})
      for (const std::string engine : {"auto", "fullscan"}) {
        ScenarioSpec spec = contended_spec();
        spec.num_vcs = vcs;
        spec.vc_buffer_depth = depth;
        spec.mode = OrderingMode::kHybrid;
        apply_engine(spec, engine);
        expect_matches_reference(spec);
      }
}

TEST(ReplayDifferential, SparseRowsServedAnalytically) {
  for (const OrderingMode mode : ordering::all_ordering_modes()) {
    ScenarioSpec spec = sparse_spec();
    spec.mode = mode;
    const ScenarioResult row = run_scenario(spec, ModelHooks{});
    ASSERT_EQ(row.sim.engine, noc::SimEngine::kAnalytical) << row.error;
    expect_matches_reference(spec);
    apply_engine(spec, "analytical");
    expect_matches_reference(spec);
  }
}

TEST(ReplayDifferential, StalledPointReportsTheStalledRow) {
  for (const OrderingMode mode :
       {OrderingMode::kBaseline, OrderingMode::kSeparated}) {
    ScenarioSpec spec = contended_spec();
    spec.max_cycles = 3;
    spec.mode = mode;
    const ScenarioResult row = run_scenario(spec, ModelHooks{});
    ASSERT_FALSE(row.drained);
    EXPECT_NE(row.error.find("max_cycles"), std::string::npos) << row.error;
    expect_matches_reference(spec);
  }
}

TEST(ReplayDifferential, ForcedAnalyticalOnContendedPointFailsEveryRow) {
  CampaignSpec camp;
  camp.name = "forced";
  camp.modes = {OrderingMode::kBaseline, OrderingMode::kSeparated,
                OrderingMode::kChain};
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {24};
  camp.base = contended_spec();
  apply_engine(camp.base, "analytical");
  const CampaignResult result = run_campaign(camp);
  ASSERT_EQ(result.rows.size(), 3u);
  for (const ScenarioResult& row : result.rows) {
    EXPECT_NE(row.error.find("engine=analytical"), std::string::npos)
        << row.error;
    EXPECT_TRUE(row == reference_row(row.spec)) << row.error;
  }
  EXPECT_EQ(result.stats.cycle_runs, 0u);
}

CampaignSpec every_mode_campaign() {
  CampaignSpec camp;
  camp.name = "diff_campaign";
  camp.root_seed = 11;
  camp.generators = {GeneratorKind::kUniform, GeneratorKind::kHotspot};
  camp.formats = {DataFormat::kFixed8, DataFormat::kFloat32};
  camp.modes = ordering::all_ordering_modes();
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {24};
  camp.base.packets = 40;
  camp.base.injection_rate = 0.8;
  return camp;
}

TEST(ReplayDifferential, CampaignMatchesReferenceAtOneAndFourThreads) {
  const CampaignSpec camp = every_mode_campaign();
  const std::size_t points = camp.generators.size() * camp.formats.size();
  for (const std::size_t threads : {1u, 4u}) {
    RunnerConfig runner;
    runner.threads = threads;
    const CampaignResult result = run_campaign(camp, runner);
    ASSERT_EQ(result.rows.size(), points * camp.modes.size());
    for (const ScenarioResult& row : result.rows) {
      ASSERT_TRUE(row.error.empty()) << row.spec.name << ": " << row.error;
      EXPECT_TRUE(row == reference_row(row.spec)) << row.spec.name;
    }
    EXPECT_EQ(result.stats.simulated, result.rows.size());
    // One timing run per grid point, whichever worker reached it first.
    EXPECT_EQ(result.stats.cycle_runs, points) << threads << " threads";
  }
}

TEST(ReplayDifferential, SingleScenarioCachedSharesOneTiming) {
  CampaignSpec camp;
  camp.name = "single";
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {24};
  camp.formats = {DataFormat::kFloat32};
  camp.base = contended_spec();
  camp.base.injection_rate = 0.8;
  ScheduleCache schedules(static_cast<std::size_t>(-1));
  const SharedSchedule::Timing* shared = nullptr;
  for (const OrderingMode mode : ordering::all_ordering_modes()) {
    camp.modes = {mode};
    const SingleRunOutcome out =
        run_single_scenario_cached(camp, nullptr, &schedules);
    ASSERT_TRUE(out.row.error.empty()) << out.row.error;
    const ScenarioSpec spec = camp.expand().front();
    EXPECT_TRUE(out.row == reference_row(spec))
        << ordering::short_mode_name(mode);
    // The row's timing is the one the first row built: asking for it
    // again runs nothing and hands back the same block.
    bool built = true;
    const SharedSchedule::Timing* timing =
        &schedules.get(spec)->timing({}, &built);
    EXPECT_FALSE(built) << ordering::short_mode_name(mode);
    if (!shared) shared = timing;
    EXPECT_EQ(timing, shared) << ordering::short_mode_name(mode);
  }
}

TEST(ReplayDifferential, ChainClassRowsShareOneLazyRawChain) {
  CampaignSpec camp;
  camp.name = "chained";
  camp.meshes = {MeshSpec{4, 4, 2}};
  camp.windows = {24};
  camp.formats = {DataFormat::kFixed8};
  camp.base = contended_spec();
  const auto run_rows = [&](ScheduleCache& schedules,
                            std::initializer_list<OrderingMode> modes) {
    for (const OrderingMode mode : modes) {
      camp.modes = {mode};
      const SingleRunOutcome out =
          run_single_scenario_cached(camp, nullptr, &schedules);
      ASSERT_TRUE(out.row.error.empty()) << out.row.error;
      EXPECT_TRUE(out.row == reference_row(camp.expand().front()))
          << ordering::short_mode_name(mode);
    }
  };

  // A grid point whose rows never chain builds no raw chain: the first to
  // ask for it afterwards builds it.
  ScheduleCache unchained(static_cast<std::size_t>(-1));
  run_rows(unchained, {OrderingMode::kBaseline, OrderingMode::kAffiliated,
                       OrderingMode::kSeparated, OrderingMode::kBucket,
                       OrderingMode::kTwoFlit});
  const ScenarioSpec spec = camp.expand().front();
  const SharedSchedulePtr sched = unchained.get(spec);
  ASSERT_TRUE(sched->derived(spec.format).uniform);
  bool built = false;
  (void)sched->weights_chain(&built);
  EXPECT_TRUE(built);

  // The chain, hdchain and hybrid rows share the one the first built.
  ScheduleCache chained(static_cast<std::size_t>(-1));
  const ordering::RawChain* shared = nullptr;
  for (const OrderingMode mode :
       {OrderingMode::kChain, OrderingMode::kHdChain, OrderingMode::kHybrid}) {
    run_rows(chained, {mode});
    built = true;
    const ordering::RawChain* chain =
        &chained.get(spec)->weights_chain(&built);
    EXPECT_FALSE(built) << ordering::short_mode_name(mode);
    if (!shared) shared = chain;
    EXPECT_EQ(chain, shared) << ordering::short_mode_name(mode);
  }

  // A ragged layout orders per request: it has no stream to chain.
  ScenarioSpec ragged = contended_spec();
  ragged.generator = GeneratorKind::kReplay;
  ragged.trace_path = payload_trace_path();
  ScheduleCache ragged_cache(1);
  const SharedSchedulePtr ragged_sched = ragged_cache.get(ragged);
  ASSERT_FALSE(ragged_sched->derived(ragged.format).uniform);
  EXPECT_THROW((void)ragged_sched->weights_chain(), std::logic_error);
}

TEST(ReplayDifferential, ScoringAShortPacketThrowsNamingIt) {
  noc::NocConfig cfg;
  cfg.flit_payload_bits = 128;
  noc::Network net(cfg);
  net.record_wire_order();
  const auto packet = [](std::size_t flits, std::uint64_t seed) {
    std::vector<BitVec> p(flits, BitVec(128));
    for (std::size_t f = 0; f < flits; ++f) p[f].set_field(0, 64, seed + f);
    return p;
  };
  net.inject(0, 5, packet(3, 1));
  net.inject(1, 6, packet(4, 9));
  net.inject(2, 7, packet(2, 17));
  ASSERT_TRUE(net.run_until_idle());
  const noc::WireOrder order = net.take_wire_order();

  noc::FlatPayloads flat;
  flat.words_per_flit = 2;
  for (const std::size_t flits : {3u, 3u, 2u}) {  // packet 1 is one short
    flat.words.resize(flat.words.size() + flits * 2, 0);
    flat.packet_begin.push_back(
        flat.packet_begin.back() + static_cast<std::uint32_t>(flits));
  }
  try {
    (void)noc::score_wire_order(order, flat);
    FAIL() << "a short packet must not score";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("packet 1 "), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nocbt::sim
