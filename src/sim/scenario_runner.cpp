#include "sim/scenario_runner.h"

#include <span>
#include <stdexcept>
#include <utility>

#include "accel/accel_config.h"
#include "accel/flitization.h"
#include "accel/platform.h"
#include "common/hash.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"
#include "ordering/bt_kernels.h"
#include "ordering/strategy.h"
#include "sim/scenario_cache.h"

namespace nocbt::sim {

namespace {

/// Per-request flitized payload batch: payloads[i] is what request i
/// injects. Only the timing run injects BitVec payloads, and only O0 ones.
using PayloadBatch = std::vector<std::vector<BitVec>>;

/// Visit every request's (inputs, weights) in `mode`'s transmission order
/// — the mode's registered OrderingStrategy supplies the permutation, so
/// every strategy in the registry is sweepable through the campaign grid.
/// Uniform window layouts are ordered in one batched pass: every
/// request's windows are concatenated and scored through one
/// OrderingStrategy::order_batch call (one BtKernelBackend pass per
/// candidate ordering) instead of one-to-two kernel calls per request.
/// order_batch returns exactly what order() returns per window, and the
/// equivalence suites pin it. The chain, hdchain and hybrid rows share the
/// schedule's one raw chain of the weights stream. Baseline mode and
/// non-uniform layouts take the per-request path.
template <typename Visit>
void for_each_ordered(const SharedSchedule& sched, ordering::OrderingMode mode,
                      Visit&& visit) {
  using ordering::apply_permutation;
  const InjectionSchedule& reqs = sched.requests;
  const DataFormat format = sched.spec.format;
  if (ordering::mode_is_baseline(mode)) {
    for (const InjectionRequest& req : reqs) visit(req.inputs, req.weights);
    return;
  }
  const ordering::OrderingStrategy& strategy = ordering::mode_strategy(mode);
  const bool separated = ordering::mode_is_separated(mode);
  std::vector<std::uint32_t> w_store;
  std::vector<std::uint32_t> in_store;
  const SharedSchedule::Derived* d =
      reqs.empty() ? nullptr : &sched.derived(format);
  if (d && d->uniform) {
    const ordering::RawChain* chain =
        ordering::mode_chains(mode) ? &sched.weights_chain() : nullptr;
    const auto w_flat = strategy.order_batch(
        d->weights_concat, format, d->window_values, d->weights_bt, chain);
    // Affiliated pairing reuses the weight permutation for the inputs.
    const auto in_flat =
        separated ? strategy.order_batch(d->inputs_concat, format,
                                         d->window_values, d->inputs_bt)
                  : std::vector<std::uint32_t>{};
    std::size_t start = 0;
    for (const InjectionRequest& req : reqs) {
      const std::size_t len = req.weights.size();
      w_store.resize(len);
      in_store.resize(len);
      const std::uint32_t* w_perm = w_flat.data() + start;
      const std::uint32_t* in_perm =
          (separated ? in_flat.data() : w_flat.data()) + start;
      for (std::size_t k = 0; k < len; ++k) {
        w_store[k] = req.weights[w_perm[k]];
        in_store[k] = req.inputs[in_perm[k]];
      }
      visit(in_store, w_store);
      start += len;
    }
    return;
  }
  for (const InjectionRequest& req : reqs) {
    const std::span<const std::uint32_t> weights(req.weights);
    const std::span<const std::uint32_t> inputs(req.inputs);
    // Affiliated pairing: one permutation keyed on the weights moves
    // (weight, input) pairs together.
    const auto w_perm = strategy.order(weights, format);
    const auto in_perm = separated ? strategy.order(inputs, format) : w_perm;
    w_store = apply_permutation(weights, std::span<const std::uint32_t>(w_perm));
    in_store = apply_permutation(inputs, std::span<const std::uint32_t>(in_perm));
    visit(in_store, w_store);
  }
}

accel::FlitLayout flit_layout(const ScenarioSpec& spec) {
  return accel::FlitLayout{spec.values_per_flit, value_bits(spec.format)};
}

/// The schedule's `mode` payloads in the flat layout the wire-order replay
/// scores: half-half packed (weights right, inputs left, no bias — pure
/// traffic), flits back to back. Sized from the schedule alone, so a row
/// can build them before its grid point's timing run is done.
noc::FlatPayloads build_flat_payloads(const SharedSchedule& sched,
                                      ordering::OrderingMode mode) {
  const accel::FlitLayout layout = flit_layout(sched.spec);
  std::size_t flits = 0;
  for (const InjectionRequest& req : sched.requests)
    flits += accel::flits_needed(
        static_cast<std::uint32_t>(req.weights.size()), false, layout);
  noc::FlatPayloads flat;
  flat.words_per_flit = (layout.flit_bits() + 63) / 64;
  flat.words.reserve(flits * flat.words_per_flit);
  flat.packet_begin.reserve(sched.requests.size() + 1);
  for_each_ordered(
      sched, mode,
      [&](std::span<const std::uint32_t> inputs,
          std::span<const std::uint32_t> weights) {
        const auto flits =
            accel::pack_half_half(inputs, weights, std::nullopt, layout);
        for (const BitVec& f : flits)
          flat.words.insert(flat.words.end(), f.words().begin(),
                            f.words().end());
        flat.packet_begin.push_back(flat.packet_begin.back() +
                                    static_cast<std::uint32_t>(flits.size()));
      });
  return flat;
}

SharedSchedulePtr materialize_schedule(const ScenarioSpec& spec) {
  auto schedule = std::make_shared<SharedSchedule>();
  schedule->spec = spec;
  if (spec.generator != GeneratorKind::kModel)
    schedule->requests = generate_schedule(spec);
  return schedule;
}

/// Exact fingerprint of every spec field the synthetic generators and the
/// timing run read (doubles by bit pattern, through StableHash). The
/// replay trace is keyed by its path here; the content key hashes its
/// bytes.
std::string schedule_key(const ScenarioSpec& spec) {
  StableHash h;
  hash_spec_fields(h, spec, /*timing_only=*/true);
  h.add(spec.trace_path);
  return h.hex();
}

/// Drive a synthetic schedule through a fresh network, injecting the
/// prebuilt per-request payloads (consumed — each request's payloads are
/// moved into the network) and recording the wire order into `order` when
/// the run drains.
RunOutcome run_cycle_timing(const ScenarioSpec& spec,
                            const InjectionSchedule& schedule,
                            PayloadBatch&& payloads, noc::WireOrder& order) {
  const noc::WallTimer timer;
  noc::Network net(spec.noc_config());
  net.record_wire_order();
  const std::int32_t nodes = spec.rows * spec.cols;

  std::size_t next_req = 0;
  const auto* pending = next_req < schedule.size() ? &schedule[next_req]
                                                   : nullptr;

  RunOutcome out;
  // The stall guard counts *active* steps, not the absolute clock: idle
  // gaps in a sparse schedule are skipped via advance_idle, so a bursty or
  // replayed workload with long quiet periods cannot trip it.
  std::uint64_t active_steps = 0;
  while (pending || !net.idle()) {
    if (active_steps > spec.max_cycles) {  // drained stays false
      out.sim = net.stats().sim;
      out.wall_ms = timer.millis();
      return out;
    }
    if (pending && pending->cycle > net.cycle() && net.idle()) {
      net.advance_idle(pending->cycle - net.cycle());
    }
    while (pending && pending->cycle <= net.cycle()) {
      net.inject(pending->src, pending->dst, std::move(payloads[next_req]));
      ++next_req;
      pending = next_req < schedule.size() ? &schedule[next_req] : nullptr;
    }
    net.step();
    ++active_steps;
    std::uint64_t backlog = 0;
    for (std::int32_t node = 0; node < nodes; ++node)
      backlog += net.injection_backlog(node);
    if (backlog > out.peak_backlog) out.peak_backlog = backlog;
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
  order = net.take_wire_order();
  out.wall_ms = timer.millis();
  return out;
}

/// Evaluate a synthetic schedule through the zero-load analytical backend.
/// Returns true when the result is exact (schedule proven congestion-free)
/// with `out` and `order` filled; false when the schedule is contended or
/// the config unsupported, with `why_not` explaining — the caller then
/// replays the same payloads on a cycle engine.
bool run_analytical_timing(const ScenarioSpec& spec,
                           const InjectionSchedule& schedule,
                           const PayloadBatch& payloads, RunOutcome& out,
                           noc::WireOrder& order, std::string& why_not) {
  const noc::WallTimer timer;
  noc::AnalyticalEngine eng(spec.noc_config());
  for (std::size_t i = 0; i < schedule.size(); ++i)
    eng.inject(schedule[i].cycle, schedule[i].src, schedule[i].dst,
               payloads[i]);
  if (!eng.run()) {
    why_not = eng.contention_detail();
    return false;
  }
  const noc::BtRecorder bt = eng.bt();
  out.bt = bt.total();
  out.cycles = eng.cycle();
  out.packets = eng.stats().packets_delivered;
  out.flits = eng.stats().flits_delivered;
  // Congestion-free means every packet is VC-assigned the cycle it is
  // enqueued, so the cycle engines' post-step backlog samples are all 0.
  out.peak_backlog = 0;
  out.avg_latency = eng.stats().packet_latency.mean();
  out.avg_hops = eng.stats().packet_hops.mean();
  out.drained = true;
  out.sim = eng.stats().sim;
  out.links = bt.snapshot();
  order = eng.wire_order();
  out.wall_ms = timer.millis();
  return true;
}

/// Full DNN inference through the accelerator platform (model workloads).
RunOutcome run_model_variant(const ScenarioSpec& spec,
                             ordering::OrderingMode mode,
                             const ModelHooks& hooks) {
  if (!hooks.model || !hooks.input)
    throw std::invalid_argument(
        "run_scenario: model workload needs CampaignSpec::hooks");
  const noc::WallTimer timer;
  accel::AccelConfig cfg = accel::AccelConfig::defaults(
      spec.format, mode, spec.rows, spec.cols, spec.num_mcs);
  cfg.fixed_bits = spec.fixed_bits;
  cfg.noc = spec.noc_config();  // mesh, VCs, values_per_flit slots
  cfg.noc.allow_self_traffic = true;  // MCs self-deliver result packets
  // Model workloads inject reactively and always need a cycle engine
  // (validate() rejects forcing analytical on them).
  if (cfg.noc.engine == noc::SimEngine::kAnalytical)
    cfg.noc.engine = noc::SimEngine::kActiveSet;
  dnn::Sequential model = hooks.model(spec.model_seed);
  accel::NocDnaPlatform platform(cfg, model);
  accel::InferenceResult result = platform.run(hooks.input(spec.input_seed));

  RunOutcome out;
  out.bt = result.bt_total;
  out.cycles = result.total_cycles;
  out.packets = result.noc_stats.packets_delivered;
  out.flits = result.noc_stats.flits_delivered;
  out.avg_latency = result.noc_stats.packet_latency.mean();
  out.avg_hops = result.noc_stats.packet_hops.mean();
  out.drained = true;
  out.sim = result.noc_stats.sim;
  out.links = std::move(result.links);
  out.wall_ms = timer.millis();
  return out;
}

/// Build a grid point's Timing. A model point runs its O0 inference. A
/// synthetic point flitizes the O0 payloads, tries the analytical engine
/// under auto (or when forced) and falls back to the cycle engine — the
/// only place a synthetic row constructs an engine.
void build_timing(const SharedSchedule& schedule, const ModelHooks& hooks,
                  SharedSchedule::Timing& timing) {
  const ScenarioSpec& spec = schedule.spec;
  if (spec.generator == GeneratorKind::kModel) {
    timing.baseline =
        run_model_variant(spec, ordering::OrderingMode::kBaseline, hooks);
    return;
  }
  const accel::FlitLayout layout = flit_layout(spec);
  PayloadBatch payloads;
  payloads.reserve(schedule.requests.size());
  for_each_ordered(schedule, ordering::OrderingMode::kBaseline,
                   [&](std::span<const std::uint32_t> inputs,
                       std::span<const std::uint32_t> weights) {
                     payloads.push_back(accel::pack_half_half(
                         inputs, weights, std::nullopt, layout));
                   });
  if (spec.engine_auto || spec.engine == noc::SimEngine::kAnalytical) {
    std::string why_not;
    if (run_analytical_timing(spec, schedule.requests, payloads,
                              timing.baseline, timing.order, why_not))
      return;
    if (!spec.engine_auto)
      throw std::runtime_error(
          "engine=analytical cannot evaluate this schedule exactly: " +
          why_not + " (engine=auto falls back to a cycle engine instead)");
    timing.engine_reason = std::move(why_not);
  }
  // Under auto-selection kAnalytical is a policy, not a steppable backend,
  // so the fallback runs active-set.
  ScenarioSpec cyc = spec;
  if (cyc.engine == noc::SimEngine::kAnalytical)
    cyc.engine = noc::SimEngine::kActiveSet;
  timing.baseline = run_cycle_timing(cyc, schedule.requests,
                                     std::move(payloads), timing.order);
}

/// The `mode` outcome of a synthetic row: its timing, and BT and per-link
/// counters replayed over the recorded wire order.
RunOutcome score_ordered(const noc::FlatPayloads& payloads,
                         const SharedSchedule::Timing& timing) {
  RunOutcome out = timing.baseline;  // a stalled run carries no links
  out.wall_ms = 0.0;
  if (!out.drained) return out;  // the stalled row: no replay
  const noc::WallTimer timer;
  const noc::BtRecorder bt = noc::score_wire_order(timing.order, payloads);
  out.bt = bt.total();
  out.links = bt.snapshot();
  out.wall_ms = timer.millis();
  return out;
}

/// Fill a row's measurement columns from its two outcomes.
void assemble_row(ScenarioResult& result, const RunOutcome& baseline,
                  const RunOutcome& ordered) {
  const ScenarioSpec& spec = result.spec;
  result.bt_baseline = baseline.bt;
  result.bt_ordered = ordered.bt;
  result.reduction =
      baseline.bt > 0 ? 1.0 - static_cast<double>(ordered.bt) /
                                  static_cast<double>(baseline.bt)
                      : 0.0;
  const hw::EnergyModel energy(hw::EnergyModelConfig{
      spec.energy_per_transition_pj, spec.frequency_mhz});
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
  result.wall_ms_baseline = baseline.wall_ms;
  result.wall_ms_ordered = ordered.wall_ms;
  if (!result.drained)
    result.error = "scenario '" + spec.name +
                   "' hit the max_cycles stall guard (" +
                   std::to_string(spec.max_cycles) +
                   " active cycles) before draining";
}

}  // namespace

const SharedSchedule::Derived& SharedSchedule::derived(
    DataFormat format) const {
  if (format != spec.format)
    throw std::logic_error("SharedSchedule::derived: built for " +
                           to_string(spec.format) + ", asked for " +
                           to_string(format));
  std::call_once(once_, [&] {
    Derived d;
    const std::size_t wv =
        requests.empty() ? 0 : requests.front().weights.size();
    if (wv > 0) {
      // order_batch needs every window full except possibly the last, and
      // affiliated pairing needs matching weight/input lengths per request.
      d.uniform = true;
      for (std::size_t i = 0; i < requests.size() && d.uniform; ++i) {
        const InjectionRequest& r = requests[i];
        const bool last = i + 1 == requests.size();
        d.uniform = r.weights.size() == r.inputs.size() &&
                    (last ? !r.weights.empty() && r.weights.size() <= wv
                          : r.weights.size() == wv);
      }
    }
    if (d.uniform) {
      d.window_values = wv;
      std::size_t total = 0;
      for (const InjectionRequest& r : requests) total += r.weights.size();
      d.weights_concat.reserve(total);
      d.inputs_concat.reserve(total);
      for (const InjectionRequest& r : requests) {
        d.weights_concat.insert(d.weights_concat.end(), r.weights.begin(),
                                r.weights.end());
        d.inputs_concat.insert(d.inputs_concat.end(), r.inputs.begin(),
                               r.inputs.end());
      }
      d.weights_bt = ordering::sequence_bt_batch(d.weights_concat, format, wv);
      d.inputs_bt = ordering::sequence_bt_batch(d.inputs_concat, format, wv);
    }
    derived_ = std::move(d);
  });
  return derived_;
}

const ordering::RawChain& SharedSchedule::weights_chain(bool* built) const {
  const Derived& d = derived(spec.format);
  if (!d.uniform)
    throw std::logic_error(
        "SharedSchedule::weights_chain: the schedule's windows are not "
        "uniform, so it orders per request");
  bool ran = false;
  std::call_once(chain_once_, [&] {
    chain_ = ordering::raw_chain_batch(d.weights_concat, spec.format,
                                       d.window_values);
    ran = true;
  });
  if (built) *built = ran;
  return chain_;
}

const SharedSchedule::Timing& SharedSchedule::timing(const ModelHooks& hooks,
                                                     bool* built) const {
  bool ran = false;
  std::call_once(timing_once_, [&] {
    // A throwing run is recorded, not retried: every row of the grid
    // point reports the same failure.
    try {
      build_timing(*this, hooks, timing_);
    } catch (...) {
      timing_.error = std::current_exception();
    }
    ran = true;
  });
  if (built) *built = ran;
  return timing_;
}

ScheduleCache::ScheduleCache(std::span<const ScenarioSpec* const> rows)
    : uses_per_key_(1) {
  grid_points_.reserve(rows.size());
  for (const ScenarioSpec* spec : rows) {
    Entry& e = entries_[schedule_key(*spec)];
    if (e.remaining++ == 0) e.grid_point = entries_.size() - 1;
    grid_points_.push_back(e.grid_point);
  }
}

SharedSchedulePtr ScheduleCache::get(const ScenarioSpec& spec) {
  const std::string key = schedule_key(spec);
  std::promise<SharedSchedulePtr> mine;
  std::shared_future<SharedSchedulePtr> fut;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.try_emplace(key, Entry{{}, uses_per_key_}).first;
    Entry& e = it->second;
    if (!e.future.valid()) {
      owner = true;
      e.future = mine.get_future().share();
    }
    fut = e.future;
    if (--e.remaining == 0) entries_.erase(it);  // fut keeps the state alive
  }
  if (owner) {
    try {
      mine.set_value(materialize_schedule(spec));
    } catch (...) {
      mine.set_exception(std::current_exception());
    }
  }
  return fut.get();  // rethrows a materialization failure to every sharer
}

ScenarioResult run_scenario_shared(const ScenarioSpec& spec,
                                   const ModelHooks& hooks,
                                   ScheduleCache* schedules,
                                   std::size_t* cycle_runs) {
  ScenarioResult result;
  result.spec = spec;
  std::size_t runs = 0;
  try {
    spec.validate();
    const bool baseline_is_ordered =
        spec.mode == ordering::OrderingMode::kBaseline;
    // With a cache every mode row of this grid point shares the schedule,
    // the derived batched-ordering inputs and the timing.
    const SharedSchedulePtr schedule =
        schedules ? schedules->get(spec) : materialize_schedule(spec);
    // A mode row's own work runs before the row waits on the timing
    // another worker may be building. A model row runs its own inference:
    // its mode may change its flit counts, so it cannot replay the O0
    // run. A synthetic row orders and packs the payloads it will replay.
    RunOutcome own;
    noc::FlatPayloads payloads;
    const bool model = spec.generator == GeneratorKind::kModel;
    if (model && !baseline_is_ordered) {
      own = run_model_variant(spec, spec.mode, hooks);
      runs = 1;
    } else if (!baseline_is_ordered) {
      payloads = build_flat_payloads(*schedule, spec.mode);
    }
    bool built = false;
    const SharedSchedule::Timing& timing = schedule->timing(hooks, &built);
    if (built && !timing.error &&
        timing.baseline.sim.engine != noc::SimEngine::kAnalytical)
      ++runs;
    result.engine_reason = timing.engine_reason;
    if (timing.error) std::rethrow_exception(timing.error);
    if (baseline_is_ordered)
      assemble_row(result, timing.baseline, timing.baseline);
    else
      assemble_row(result, timing.baseline,
                   model ? own : score_ordered(payloads, timing));
    // The timing run's wall clock is charged to the row that ran it.
    if (!built) result.wall_ms_baseline = 0.0;
    if (baseline_is_ordered) result.wall_ms_ordered = result.wall_ms_baseline;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  if (cycle_runs) *cycle_runs = runs;
  return result;
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const ModelHooks& hooks) {
  return run_scenario_shared(spec, hooks, nullptr);
}

ScenarioResult run_single_scenario(const CampaignSpec& spec) {
  return run_single_scenario_cached(spec, nullptr).row;
}

SingleRunOutcome run_single_scenario_cached(const CampaignSpec& spec,
                                            ScenarioCache* cache,
                                            ScheduleCache* schedules) {
  const std::vector<ScenarioSpec> scenarios = spec.expand();
  if (scenarios.size() != 1)
    throw std::invalid_argument(
        "run_single_scenario: campaign '" + spec.name + "' expands to " +
        std::to_string(scenarios.size()) +
        " scenarios (every grid axis must hold exactly one value and "
        "replicates must be 1)");
  const ScenarioSpec& scenario = scenarios.front();

  SingleRunOutcome out;
  if (cache) {
    const ContentKey key = scenario_content_key(scenario, spec.hooks.id);
    if (key.cacheable) {
      out.content_hash = key.hash;
      if (auto cached = cache->lookup(scenario, key.hash)) {
        out.row = std::move(*cached);
        out.cache_hit = true;
        return out;
      }
      out.row = run_scenario_shared(scenario, spec.hooks, schedules);
      cache->store(key.hash, out.row);
      return out;
    }
  }
  out.row = run_scenario_shared(scenario, spec.hooks, schedules);
  return out;
}

}  // namespace nocbt::sim
