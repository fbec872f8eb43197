#include "sim/scenario_runner.h"

#include <stdexcept>
#include <utility>

#include "accel/accel_config.h"
#include "accel/flitization.h"
#include "accel/platform.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"
#include "ordering/bt_kernels.h"
#include "ordering/strategy.h"
#include "sim/scenario_cache.h"

namespace nocbt::sim {

namespace {

/// Per-request flitized payload batch: payloads[i] is what request i
/// injects. Built once per variant and replayed by the analytical attempt
/// and, on fallback, the cycle engine.
using PayloadBatch = std::vector<std::vector<BitVec>>;

/// Flitize one request under the given ordering mode: encode order, pack
/// half-half (weights right, inputs left, no bias — pure traffic). The
/// mode's registered OrderingStrategy supplies the permutation, so every
/// strategy in the registry is sweepable through the campaign grid.
std::vector<BitVec> build_payloads(const InjectionRequest& req,
                                   DataFormat format,
                                   const accel::FlitLayout& layout,
                                   ordering::OrderingMode mode) {
  using ordering::apply_permutation;
  std::span<const std::uint32_t> weights(req.weights);
  std::span<const std::uint32_t> inputs(req.inputs);
  std::vector<std::uint32_t> w_store;
  std::vector<std::uint32_t> in_store;
  if (!ordering::mode_is_baseline(mode)) {
    const ordering::OrderingStrategy& strategy = ordering::mode_strategy(mode);
    if (ordering::mode_is_separated(mode)) {
      const auto w_perm = strategy.order(weights, format);
      const auto in_perm = strategy.order(inputs, format);
      w_store =
          apply_permutation(weights, std::span<const std::uint32_t>(w_perm));
      in_store =
          apply_permutation(inputs, std::span<const std::uint32_t>(in_perm));
    } else {
      // Affiliated pairing: one permutation keyed on the weights moves
      // (weight, input) pairs together.
      const auto perm = strategy.order(weights, format);
      w_store = apply_permutation(weights, std::span<const std::uint32_t>(perm));
      in_store = apply_permutation(inputs, std::span<const std::uint32_t>(perm));
    }
    weights = w_store;
    inputs = in_store;
  }
  return accel::pack_half_half(inputs, weights, std::nullopt, layout);
}

/// Flitize the whole schedule for `mode` in one batched ordering pass:
/// every request's windows are concatenated and scored through one
/// OrderingStrategy::order_batch call (one BtKernelBackend pass per
/// candidate ordering) instead of one-to-two kernel calls per request.
/// Payloads are byte-identical to looping build_payloads — order_batch
/// returns exactly what order() returns per window, and the equivalence
/// suite pins it. Baseline mode and non-uniform window layouts take the
/// per-request path.
PayloadBatch build_payload_batch(const SharedSchedule& sched,
                                 DataFormat format,
                                 const accel::FlitLayout& layout,
                                 ordering::OrderingMode mode) {
  const InjectionSchedule& reqs = sched.requests;
  PayloadBatch payloads;
  payloads.reserve(reqs.size());
  if (!ordering::mode_is_baseline(mode) && !reqs.empty()) {
    const SharedSchedule::Derived& d = sched.derived(format);
    if (d.uniform) {
      const ordering::OrderingStrategy& strategy =
          ordering::mode_strategy(mode);
      const bool separated = ordering::mode_is_separated(mode);
      const auto w_flat = strategy.order_batch(d.weights_concat, format,
                                               d.window_values, d.weights_bt);
      // Affiliated pairing reuses the weight permutation for the inputs.
      const auto in_flat =
          separated ? strategy.order_batch(d.inputs_concat, format,
                                           d.window_values, d.inputs_bt)
                    : std::vector<std::uint32_t>{};
      std::vector<std::uint32_t> w_store;
      std::vector<std::uint32_t> in_store;
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
        payloads.push_back(
            accel::pack_half_half(in_store, w_store, std::nullopt, layout));
        start += len;
      }
      return payloads;
    }
  }
  for (const InjectionRequest& req : reqs)
    payloads.push_back(build_payloads(req, format, layout, mode));
  return payloads;
}

SharedSchedulePtr materialize_schedule(const ScenarioSpec& spec) {
  auto gen = make_generator(spec);
  auto schedule = std::make_shared<SharedSchedule>();
  while (auto req = gen->next()) schedule->requests.push_back(std::move(*req));
  return schedule;
}

/// Fingerprint of every spec field the synthetic generators read. Mode,
/// engine and name are deliberately absent: scenarios differing only in
/// those produce byte-identical schedules and share one materialization.
std::string schedule_key(const ScenarioSpec& spec) {
  std::string key = to_string(spec.generator);
  const auto add = [&key](const std::string& s) {
    key += '|';
    key += s;
  };
  add(std::to_string(spec.rows));
  add(std::to_string(spec.cols));
  add(to_string(spec.format));
  add(std::to_string(spec.fixed_bits));
  add(std::to_string(spec.values_per_flit));
  add(std::to_string(spec.window));
  add(std::to_string(spec.packets));
  add(std::to_string(spec.injection_rate));
  add(to_string(spec.value_dist));
  add(std::to_string(spec.dist_a));
  add(std::to_string(spec.dist_b));
  add(std::to_string(spec.hotspot_fraction));
  add(std::to_string(spec.hotspot_node));
  add(std::to_string(spec.burst_len));
  add(std::to_string(spec.burst_gap));
  add(spec.trace_path);
  add(std::to_string(spec.num_mcs));
  add(std::to_string(spec.model_seed));
  add(spec.model);
  add(spec.placement);
  add(std::to_string(spec.tiles_per_layer));
  add(std::to_string(spec.seed));
  return key;
}

/// Everything one network run yields.
struct VariantOutcome {
  std::uint64_t bt = 0;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t peak_backlog = 0;
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  bool drained = false;
  noc::SimProfile sim;   ///< step-loop counters (deterministic)
  double wall_ms = 0.0;  ///< host wall-clock of the run (nondeterministic)
  std::vector<noc::LinkObservation> links;  ///< frozen per-link counters
};

/// Drive a synthetic generator's schedule through a fresh network,
/// injecting the prebuilt per-request payloads (consumed — each request's
/// payloads are moved into the network). `want_links` gates the per-link
/// snapshot: only the ordered run's links are reported, so the baseline
/// variant skips copying every link counter of a large mesh.
VariantOutcome run_traffic_variant(const ScenarioSpec& spec, bool want_links,
                                   const InjectionSchedule& schedule,
                                   PayloadBatch&& payloads) {
  const noc::WallTimer timer;
  noc::Network net(spec.noc_config());
  const std::int32_t nodes = spec.rows * spec.cols;
  for (std::int32_t node = 0; node < nodes; ++node)
    net.set_sink(node, nullptr);  // stats-only sink

  std::size_t next_req = 0;
  const auto* pending = next_req < schedule.size() ? &schedule[next_req]
                                                   : nullptr;

  VariantOutcome out;
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
  if (want_links) out.links = net.bt().snapshot();
  out.wall_ms = timer.millis();
  return out;
}

/// Full DNN inference through the accelerator platform (model workloads).
VariantOutcome run_model_variant(const ScenarioSpec& spec,
                                 ordering::OrderingMode mode,
                                 const ModelHooks& hooks, bool want_links) {
  if (!hooks.model || !hooks.input)
    throw std::invalid_argument(
        "run_scenario: model workload needs CampaignSpec::hooks");
  const noc::WallTimer timer;
  accel::AccelConfig cfg = accel::AccelConfig::defaults(
      spec.format, mode, spec.rows, spec.cols, spec.num_mcs);
  cfg.noc.num_vcs = spec.num_vcs;
  cfg.noc.vc_buffer_depth = spec.vc_buffer_depth;
  cfg.noc.engine = spec.engine;
  dnn::Sequential model = hooks.model(spec.model_seed);
  accel::NocDnaPlatform platform(cfg, model);
  accel::InferenceResult result = platform.run(hooks.input(spec.input_seed));

  VariantOutcome out;
  out.bt = result.bt_total;
  out.cycles = result.total_cycles;
  out.packets = result.noc_stats.packets_delivered;
  out.flits = result.noc_stats.flits_delivered;
  out.avg_latency = result.noc_stats.packet_latency.mean();
  out.avg_hops = result.noc_stats.packet_hops.mean();
  out.drained = true;
  out.sim = result.noc_stats.sim;
  if (want_links) out.links = std::move(result.links);
  out.wall_ms = timer.millis();
  return out;
}

/// Evaluate a synthetic schedule through the zero-load analytical backend.
/// Returns true when the result is exact (schedule proven congestion-free)
/// with `out` filled; false when the schedule is contended or the config
/// unsupported, with `why_not` explaining — the caller then replays the
/// same materialized schedule on a cycle engine.
bool run_analytical_variant(const ScenarioSpec& spec, bool want_links,
                            const InjectionSchedule& schedule,
                            const PayloadBatch& payloads,
                            VariantOutcome& out, std::string& why_not) {
  const noc::WallTimer timer;
  noc::AnalyticalEngine eng(spec.noc_config());
  for (std::size_t i = 0; i < schedule.size(); ++i)
    eng.inject(schedule[i].cycle, schedule[i].src, schedule[i].dst,
               payloads[i]);
  if (!eng.run()) {
    why_not = eng.contention_detail();
    return false;
  }
  out.bt = eng.bt().total();
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
  if (want_links) out.links = eng.bt().snapshot();
  out.wall_ms = timer.millis();
  return true;
}

VariantOutcome run_variant(const ScenarioSpec& spec,
                           ordering::OrderingMode mode,
                           const ModelHooks& hooks, bool want_links,
                           const SharedSchedule* schedule) {
  // Model workloads inject reactively and always need a cycle engine
  // (validate() rejects forcing analytical on them); every other workload
  // replays the caller's materialized schedule.
  ScenarioSpec cyc = spec;
  if (cyc.engine == noc::SimEngine::kAnalytical)
    cyc.engine = noc::SimEngine::kActiveSet;
  if (spec.generator == GeneratorKind::kModel)
    return run_model_variant(cyc, mode, hooks, want_links);

  // Flitize the whole schedule once — one batched ordering pass whose
  // payloads both the analytical attempt and its cycle-engine fallback
  // replay, so a fallback never repeats the ordering work.
  const accel::FlitLayout layout{spec.values_per_flit, value_bits(spec.format)};
  PayloadBatch payloads =
      build_payload_batch(*schedule, spec.format, layout, mode);
  if (spec.engine_auto || spec.engine == noc::SimEngine::kAnalytical) {
    VariantOutcome out;
    std::string why_not;
    if (run_analytical_variant(spec, want_links, schedule->requests, payloads,
                               out, why_not))
      return out;
    if (!spec.engine_auto)
      throw std::runtime_error(
          "engine=analytical cannot evaluate this schedule exactly: " +
          why_not + " (engine=auto falls back to a cycle engine instead)");
  }
  // Cycle-engine path; under auto-selection kAnalytical is a policy, not a
  // steppable backend, so the fallback runs active-set.
  return run_traffic_variant(cyc, want_links, schedule->requests,
                             std::move(payloads));
}

}  // namespace

const SharedSchedule::Derived& SharedSchedule::derived(
    DataFormat format) const {
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
    format_ = format;
  });
  if (format != format_)
    throw std::logic_error("SharedSchedule::derived: built for " +
                           to_string(format_) + ", asked for " +
                           to_string(format));
  return derived_;
}

SharedSchedulePtr ScheduleCache::get(const ScenarioSpec& spec) {
  const std::string key = schedule_key(spec);
  std::promise<SharedSchedulePtr> mine;
  std::shared_future<SharedSchedulePtr> fut;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      owner = true;
      fut = mine.get_future().share();
      entries_.emplace(key, Entry{fut, uses_per_key_});
    } else {
      fut = it->second.future;
    }
  }
  if (owner) {
    try {
      mine.set_value(materialize_schedule(spec));
    } catch (...) {
      mine.set_exception(std::current_exception());
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && --it->second.remaining == 0)
      entries_.erase(it);  // shared_future keeps the state alive
  }
  return fut.get();  // rethrows a materialization failure to every sharer
}

ScenarioResult run_scenario_shared(const ScenarioSpec& spec,
                                   const ModelHooks& hooks,
                                   ScheduleCache* schedules) {
  ScenarioResult result;
  result.spec = spec;
  try {
    spec.validate();
    // Materialize the pre-ordering schedule once: both variants (and the
    // analytical attempt plus its cycle-engine fallback) replay the same
    // request list, and with a cache every mode row of this traffic stream
    // shares it too — including the derived batched-ordering inputs.
    SharedSchedulePtr schedule;
    if (spec.generator != GeneratorKind::kModel)
      schedule =
          schedules ? schedules->get(spec) : materialize_schedule(spec);
    // Per-link rows come from the ordered run only, so the baseline
    // variant skips the snapshot — unless it *is* the ordered run.
    const bool baseline_is_ordered =
        spec.mode == ordering::OrderingMode::kBaseline;
    const VariantOutcome baseline =
        run_variant(spec, ordering::OrderingMode::kBaseline, hooks,
                    baseline_is_ordered, schedule.get());
    const VariantOutcome ordered =
        baseline_is_ordered
            ? baseline
            : run_variant(spec, spec.mode, hooks, true, schedule.get());
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
  } catch (const std::exception& e) {
    result.error = e.what();
  }
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
