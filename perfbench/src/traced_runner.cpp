#include "traced_runner.h"

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "accel/flitization.h"
#include "hw/energy_model.h"
#include "noc/analytical_engine.h"
#include "noc/network.h"
#include "opt/evaluator.h"
#include "ordering/strategy.h"
#include "sim/campaign_report.h"
#include "sim/run_journal.h"
#include "sim/scenario_cache.h"
#include "sim/scenario_runner.h"

namespace perfbench {

using namespace nocbt;

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> names{
      "sim.plan",     "sim.materialize", "ordering.derive", "ordering.order",
      "accel.pack",   "noc.analytical",  "noc.cycle",       "hw.energy",
      "sim.cache",    "sim.journal",     "sim.report",      "opt.search"};
  return names[static_cast<std::size_t>(layer)];
}

void LayerTotals::add(const LayerTotals& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    ns[i] += o.ns[i];
    calls[i] += o.calls[i];
  }
  for (std::size_t i = 0; i < order_ns_by_mode.size(); ++i)
    order_ns_by_mode[i] += o.order_ns_by_mode[i];
  order_values += o.order_values;
  packed_flits += o.packed_flits;
  analytical_attempts += o.analytical_attempts;
  analytical_accepted += o.analytical_accepted;
  analytical_rejected_ns += o.analytical_rejected_ns;
  cycle_runs += o.cycle_runs;
  cycle_flits += o.cycle_flits;
  schedules += o.schedules;
  rows += o.rows;
  cache_lookups += o.cache_lookups;
  cache_hits += o.cache_hits;
  cache_lookup_ns += o.cache_lookup_ns;
  cache_store_ns += o.cache_store_ns;
  cache_wait_ns += o.cache_wait_ns;
}

namespace {

using PayloadBatch = std::vector<std::vector<BitVec>>;

/// The runner's own sim::ScheduleCache. Every schedule it hands out is
/// held until the pass ends, so no two share an address and the distinct
/// pointers count the materializations.
class TracedSchedules {
 public:
  explicit TracedSchedules(std::size_t uses_per_key) : cache_(uses_per_key) {}

  sim::SharedSchedulePtr get(const sim::ScenarioSpec& spec) {
    sim::SharedSchedulePtr schedule = cache_.get(spec);
    const std::lock_guard<std::mutex> lock(mutex_);
    seen_.insert(schedule);
    return schedule;
  }

  /// Schedules materialized so far.
  [[nodiscard]] std::size_t distinct() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seen_.size();
  }

 private:
  sim::ScheduleCache cache_;
  std::mutex mutex_;
  std::set<sim::SharedSchedulePtr> seen_;
};

struct Variant {
  std::uint64_t bt = 0;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t peak_backlog = 0;
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  bool drained = false;
  noc::SimProfile sim;
  double wall_ms = 0.0;
  std::vector<noc::LinkObservation> links;
};

void charge_order(LayerTotals& t, Span& span, ordering::OrderingMode mode,
                  std::size_t values) {
  t.order_ns_by_mode[static_cast<std::size_t>(mode)] += span.close();
  t.order_values += values;
}

/// build_payload_batch / build_payloads, one span per layer per variant.
PayloadBatch traced_payloads(const sim::SharedSchedule& sched,
                             DataFormat format,
                             const accel::FlitLayout& layout,
                             ordering::OrderingMode mode, LayerTotals& t) {
  const sim::InjectionSchedule& reqs = sched.requests;
  PayloadBatch payloads;
  payloads.reserve(reqs.size());
  const auto count_flits = [&] {
    for (const auto& p : payloads) t.packed_flits += p.size();
  };
  if (ordering::mode_is_baseline(mode) || reqs.empty()) {
    Span pack(t, Layer::kPack);
    for (const sim::InjectionRequest& req : reqs)
      payloads.push_back(
          accel::pack_half_half(req.inputs, req.weights, std::nullopt, layout));
    pack.close();
    count_flits();
    return payloads;
  }

  Span derive(t, Layer::kDerive);
  const sim::SharedSchedule::Derived& d = sched.derived(format);
  derive.close();
  const ordering::OrderingStrategy& strategy = ordering::mode_strategy(mode);
  const bool separated = ordering::mode_is_separated(mode);

  if (d.uniform) {
    Span order(t, Layer::kOrder);
    const auto w_flat = strategy.order_batch(d.weights_concat, format,
                                             d.window_values, d.weights_bt);
    const auto in_flat =
        separated ? strategy.order_batch(d.inputs_concat, format,
                                         d.window_values, d.inputs_bt)
                  : std::vector<std::uint32_t>{};
    charge_order(t, order, mode, w_flat.size() + in_flat.size());

    Span pack(t, Layer::kPack);
    std::vector<std::uint32_t> w_store;
    std::vector<std::uint32_t> in_store;
    std::size_t start = 0;
    for (const sim::InjectionRequest& req : reqs) {
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
    pack.close();
    count_flits();
    return payloads;
  }

  // Ragged windows: one order() call per request and stream.
  std::vector<std::vector<std::uint32_t>> w_perms(reqs.size());
  std::vector<std::vector<std::uint32_t>> in_perms(separated ? reqs.size() : 0);
  Span order(t, Layer::kOrder);
  std::size_t values = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    w_perms[i] = strategy.order(reqs[i].weights, format);
    values += reqs[i].weights.size();
    if (separated) {
      in_perms[i] = strategy.order(reqs[i].inputs, format);
      values += reqs[i].inputs.size();
    }
  }
  charge_order(t, order, mode, values);

  Span pack(t, Layer::kPack);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    using ordering::apply_permutation;
    const std::span<const std::uint32_t> w_perm(w_perms[i]);
    const std::span<const std::uint32_t> in_perm(separated ? in_perms[i]
                                                           : w_perms[i]);
    const auto w_store = apply_permutation(
        std::span<const std::uint32_t>(reqs[i].weights), w_perm);
    const auto in_store = apply_permutation(
        std::span<const std::uint32_t>(reqs[i].inputs), in_perm);
    payloads.push_back(
        accel::pack_half_half(in_store, w_store, std::nullopt, layout));
  }
  pack.close();
  count_flits();
  return payloads;
}

bool analytical_variant(const sim::ScenarioSpec& spec, bool want_links,
                        const sim::InjectionSchedule& schedule,
                        const PayloadBatch& payloads, Variant& out,
                        std::string& why_not) {
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
  out.peak_backlog = 0;
  out.avg_latency = eng.stats().packet_latency.mean();
  out.avg_hops = eng.stats().packet_hops.mean();
  out.drained = true;
  out.sim = eng.stats().sim;
  if (want_links) out.links = eng.bt().snapshot();
  return true;
}

Variant cycle_variant(const sim::ScenarioSpec& spec, bool want_links,
                      const sim::InjectionSchedule& schedule,
                      PayloadBatch&& payloads) {
  noc::Network net(spec.noc_config());
  const std::int32_t nodes = spec.rows * spec.cols;
  for (std::int32_t node = 0; node < nodes; ++node)
    net.set_sink(node, nullptr);

  std::size_t next_req = 0;
  const auto* pending = next_req < schedule.size() ? &schedule[next_req]
                                                   : nullptr;
  Variant out;
  std::uint64_t active_steps = 0;
  while (pending || !net.idle()) {
    if (active_steps > spec.max_cycles) {
      out.sim = net.stats().sim;
      return out;
    }
    if (pending && pending->cycle > net.cycle() && net.idle())
      net.advance_idle(pending->cycle - net.cycle());
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
  return out;
}

Variant traced_variant(const sim::ScenarioSpec& spec,
                       ordering::OrderingMode mode, bool want_links,
                       const sim::SharedSchedule& sched, LayerTotals& t) {
  sim::ScenarioSpec cyc = spec;
  if (cyc.engine == noc::SimEngine::kAnalytical)
    cyc.engine = noc::SimEngine::kActiveSet;
  const accel::FlitLayout layout{spec.values_per_flit,
                                 value_bits(spec.format)};
  PayloadBatch payloads = traced_payloads(sched, spec.format, layout, mode, t);
  if (spec.engine_auto || spec.engine == noc::SimEngine::kAnalytical) {
    Variant out;
    std::string why_not;
    Span span(t, Layer::kAnalytical);
    const bool exact = analytical_variant(spec, want_links, sched.requests,
                                          payloads, out, why_not);
    const std::uint64_t ns = span.close();
    ++t.analytical_attempts;
    if (exact) {
      ++t.analytical_accepted;
      out.wall_ms = static_cast<double>(ns) / 1e6;
      return out;
    }
    t.analytical_rejected_ns += ns;
    if (!spec.engine_auto)
      throw std::runtime_error(
          "engine=analytical cannot evaluate this schedule exactly: " +
          why_not);
  }
  Span span(t, Layer::kCycle);
  Variant out =
      cycle_variant(cyc, want_links, sched.requests, std::move(payloads));
  out.wall_ms = static_cast<double>(span.close()) / 1e6;
  ++t.cycle_runs;
  t.cycle_flits += out.flits;
  return out;
}

/// run_scenario_shared for synthetic and placed workloads.
sim::ScenarioResult traced_row(const sim::ScenarioSpec& spec,
                               TracedSchedules& schedules, LayerTotals& t) {
  sim::ScenarioResult result;
  result.spec = spec;
  ++t.rows;
  try {
    spec.validate();
    if (spec.generator == sim::GeneratorKind::kModel)
      throw std::invalid_argument(
          "traced runner: model workloads are not mirrored");
    Span materialize(t, Layer::kMaterialize);
    const sim::SharedSchedulePtr schedule = schedules.get(spec);
    materialize.close();
    const bool baseline_is_ordered =
        spec.mode == ordering::OrderingMode::kBaseline;
    const Variant baseline =
        traced_variant(spec, ordering::OrderingMode::kBaseline,
                       baseline_is_ordered, *schedule, t);
    const Variant ordered =
        baseline_is_ordered
            ? baseline
            : traced_variant(spec, spec.mode, true, *schedule, t);

    Span energy_span(t, Layer::kEnergy);
    const hw::EnergyModel energy(hw::EnergyModelConfig{
        spec.energy_per_transition_pj, spec.frequency_mhz});
    result.energy_baseline_pj = energy.energy_pj(baseline.bt);
    result.energy_pj = energy.energy_pj(ordered.bt);
    result.power_baseline_mw = energy.power_mw(baseline.bt, baseline.cycles);
    result.power_mw = energy.power_mw(ordered.bt, ordered.cycles);
    result.links = energy.annotate(ordered.links);
    energy_span.close();

    result.bt_baseline = baseline.bt;
    result.bt_ordered = ordered.bt;
    result.reduction =
        baseline.bt > 0 ? 1.0 - static_cast<double>(ordered.bt) /
                                    static_cast<double>(baseline.bt)
                        : 0.0;
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

}  // namespace

TracedPass traced_campaign(const sim::CampaignSpec& spec,
                           const sim::ExecutionConfig& exec,
                           unsigned threads) {
  if (exec.shard.count != 1)
    throw std::invalid_argument("traced runner: sharding is not mirrored");
  TracedPass pass;
  LayerTotals main;
  const std::uint64_t start = now_ns();

  const bool keyed = !exec.cache_dir.empty() || !exec.journal_path.empty();
  Span plan(main, Layer::kPlan);
  const std::vector<sim::ScenarioSpec> scenarios = spec.expand();
  std::vector<sim::ContentKey> keys;
  if (keyed) {
    keys.reserve(scenarios.size());
    for (const sim::ScenarioSpec& s : scenarios)
      keys.push_back(sim::scenario_content_key(s, spec.hooks.id));
  }
  const std::string campaign_hash = exec.journal_path.empty()
                                        ? std::string()
                                        : sim::campaign_content_hash(spec);
  plan.close();

  std::unique_ptr<sim::ScenarioCache> cache;
  if (!exec.cache_dir.empty()) {
    Span span(main, Layer::kCache);
    cache = std::make_unique<sim::ScenarioCache>(exec.cache_dir);
  }
  std::unique_ptr<sim::RunJournal> journal;
  if (!exec.journal_path.empty()) {
    Span span(main, Layer::kJournal);
    if (sim::read_journal(exec.journal_path).exists)
      throw std::invalid_argument(
          "traced runner: only fresh journals are mirrored");
    journal = std::make_unique<sim::RunJournal>(
        exec.journal_path, campaign_hash, scenarios.size(), true);
  }

  sim::CampaignResult& result = pass.result;
  result.stats.grid_total = scenarios.size();
  result.stats.assigned = scenarios.size();
  result.rows.resize(scenarios.size());

  TracedSchedules schedules(spec.modes.size());
  std::atomic<std::size_t> next{0};
  std::mutex persist_mutex;
  const std::size_t want = threads < 1 ? 1 : threads;
  const std::size_t pool =
      scenarios.size() < want ? (scenarios.empty() ? 1 : scenarios.size())
                              : want;
  std::vector<LayerTotals> per_thread(pool);
  const auto worker = [&](LayerTotals& t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= scenarios.size()) return;
      const sim::ScenarioSpec& scenario = scenarios[i];
      const sim::ContentKey* key = keyed ? &keys[i] : nullptr;
      const bool persist = key && key->cacheable;

      std::optional<sim::ScenarioResult> row;
      if (persist && cache) {
        Span span(t, Layer::kCache);
        row = cache->lookup(scenario, key->hash);
        t.cache_lookup_ns += span.close();
        ++t.cache_lookups;
        if (row) ++t.cache_hits;
      }
      const bool simulated = !row.has_value();
      if (simulated) row = traced_row(scenario, schedules, t);

      // The runner stores and appends under one lock; waiting for it is
      // charged to the first layer that runs under it.
      const std::uint64_t wait_start = now_ns();
      const std::lock_guard<std::mutex> lock(persist_mutex);
      const std::uint64_t wait_ns = now_ns() - wait_start;
      if (simulated) ++result.stats.simulated;
      if (!simulated) ++result.stats.cache_hits;
      if (persist && simulated && cache) {
        Span span(t, Layer::kCache);
        cache->store(key->hash, *row);
        t.cache_store_ns += span.close();
        t.ns[static_cast<std::size_t>(Layer::kCache)] += wait_ns;
        t.cache_wait_ns += wait_ns;
      } else if (persist && journal) {
        t.ns[static_cast<std::size_t>(Layer::kJournal)] += wait_ns;
      }
      if (persist && journal) {
        Span span(t, Layer::kJournal);
        journal->append(key->hash, i, *row);
      }
      result.rows[i] = std::move(*row);
    }
  };

  const std::uint64_t pool_start = now_ns();
  run_parallel(pool, [&](std::size_t k) { worker(per_thread[k]); });
  const std::uint64_t pool_ns = now_ns() - pool_start;

  if (cache)
    for (std::string& w : cache->take_diagnostics())
      result.stats.warnings.push_back(std::move(w));
  journal.reset();

  Span report(main, Layer::kReport);
  pass.report = sim::json_report(spec, result);
  report.close();

  pass.wall_ns = now_ns() - start;
  pass.capacity_ns = pass.wall_ns - pool_ns + pool * pool_ns;
  pass.totals = main;
  for (const LayerTotals& t : per_thread) pass.totals.add(t);
  pass.totals.schedules = schedules.distinct();
  return pass;
}

std::vector<opt::Candidate> evaluated_candidates(
    const opt::SearchSpace& space, const opt::CoOptResult& result) {
  std::vector<opt::Candidate> out;
  std::unordered_set<std::string> seen;
  const auto visit = [&](const opt::Candidate& c) {
    if (seen.insert(opt::to_string(c)).second) out.push_back(c);
  };
  for (const ordering::OrderingMode mode : space.modes)
    visit(opt::Candidate{space.placements.front(), mode,
                         space.windows.front(), space.formats.front()});
  for (const opt::StepRecord& step : result.steps) visit(step.candidate);
  visit(result.best);
  return out;
}

TracedPass traced_coopt(const Workload& workload,
                        const opt::CoOptConfig& search,
                        const opt::CoOptResult& untraced,
                        std::vector<sim::ScenarioResult>& rows,
                        opt::CoOptResult& replay, std::size_t& replay_runs) {
  TracedPass pass;
  LayerTotals& t = pass.totals;
  const std::uint64_t start = now_ns();

  // The evaluator's own schedule cache never evicts.
  TracedSchedules schedules(std::numeric_limits<std::size_t>::max());
  const opt::Evaluator templ(workload.campaign);
  auto served = std::make_shared<sim::ScenarioCache>();
  rows.clear();
  for (const opt::Candidate& c : evaluated_candidates(workload.space,
                                                      untraced)) {
    const sim::CampaignSpec camp = templ.campaign_for(c);
    Span plan(t, Layer::kPlan);
    const std::vector<sim::ScenarioSpec> scenarios = camp.expand();
    const sim::ContentKey key =
        sim::scenario_content_key(scenarios.front(), camp.hooks.id);
    plan.close();
    rows.push_back(traced_row(scenarios.front(), schedules, t));
    served->insert_memory(key.hash, rows.back());
  }

  opt::Evaluator eval(workload.campaign, served);
  Span span(t, Layer::kSearch);
  replay = opt::run_coopt(eval, workload.space, search);
  span.close();
  replay_runs = eval.runs();
  t.schedules = schedules.distinct();

  pass.wall_ns = now_ns() - start;
  pass.capacity_ns = pass.wall_ns;
  return pass;
}

}  // namespace perfbench
