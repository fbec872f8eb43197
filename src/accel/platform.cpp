#include "accel/platform.h"

#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "accel/packet_builder.h"
#include "accel/task.h"
#include "common/float_bits.h"
#include "noc/sim_profiler.h"
#include "ordering/ordering_unit.h"

namespace nocbt::accel {
namespace {

/// Sideband registry entry for a result packet.
struct ResultMeta {
  std::int32_t output_index = 0;
  std::int32_t mc_node = -1;
};

/// Per-MC injection state for one layer phase.
struct McState {
  std::int32_t node = -1;
  std::deque<std::size_t> task_queue;  ///< indices into the layer task list
  struct Staged {
    BuiltPacket packet;
    std::uint64_t ready_at = 0;  ///< cycle the ordering unit finishes
  };
  std::deque<Staged> prefetch;   ///< ordered packets awaiting injection
  std::uint64_t unit_busy_until = 0;
  std::uint32_t in_flight = 0;   ///< data packets without a result yet
};

LayerCodecs make_codecs(DataFormat format, unsigned fixed_bits,
                        const dnn::Tensor& weights, const dnn::Tensor& bias,
                        const dnn::Tensor& activations) {
  if (format == DataFormat::kFloat32)
    return LayerCodecs{ValueCodec::float32(), ValueCodec::float32(),
                       ValueCodec::float32()};
  return LayerCodecs{
      ValueCodec::fixed_calibrated(fixed_bits, weights.data()),
      ValueCodec::fixed_calibrated(fixed_bits, activations.data()),
      ValueCodec::fixed_calibrated(fixed_bits, bias.data())};
}

}  // namespace

NocDnaPlatform::NocDnaPlatform(AccelConfig config, dnn::Sequential& model)
    : config_(std::move(config)), model_(model) {
  config_.validate();
  roles_ = assign_roles(noc::MeshShape(config_.noc.rows, config_.noc.cols),
                        config_.num_mcs);
  if (roles_.pes.empty())
    throw std::invalid_argument("NocDnaPlatform: no PE nodes left");
}

InferenceResult NocDnaPlatform::run(const dnn::Tensor& input) {
  if (input.shape().n != 1)
    throw std::invalid_argument("NocDnaPlatform::run: batch must be 1");

  const FlitLayout layout = config_.layout();
  noc::Network net(config_.noc);
  const ordering::OrderingUnitModel unit_model(
      ordering::OrderingUnitConfig{layout.values_per_flit, layout.value_bits, 1});

  InferenceResult result;

  // ---- sideband registries and per-layer shared state ----
  std::unordered_map<std::uint64_t, TaskMeta> task_meta;
  std::unordered_map<std::uint64_t, ResultMeta> result_meta;
  std::unordered_map<std::int32_t, std::size_t> mc_index_of_node;

  const LayerCodecs* active_codecs = nullptr;
  dnn::Tensor* active_output = nullptr;
  std::size_t results_done = 0;
  std::vector<McState> mc_states(roles_.mcs.size());
  for (std::size_t m = 0; m < roles_.mcs.size(); ++m) {
    mc_states[m].node = roles_.mcs[m];
    mc_index_of_node[roles_.mcs[m]] = m;
  }

  // ---- one sink per node; dispatch on the packet registries ----
  for (std::int32_t node = 0; node < net.shape().node_count(); ++node) {
    net.set_sink(node, [&, node](noc::Packet&& packet, std::uint64_t cycle) {
      noc::TraceEvent event;
      event.packet_id = packet.id;
      event.src = packet.src;
      event.dst = packet.dst;
      event.num_flits = static_cast<std::uint32_t>(packet.payloads.size());
      event.inject_cycle = packet.inject_cycle;
      event.eject_cycle = cycle;
      event.hops = packet.hops;
      result.trace.record(event);

      if (const auto it = task_meta.find(packet.id); it != task_meta.end()) {
        // Data packet arrived at a PE: decode the transmitted bits and
        // compute the neuron.
        const TaskMeta& meta = it->second;
        std::vector<std::uint32_t> pair_index;
        const UnpackedTask decoded =
            decode_task_packet(packet.payloads, meta, layout, &pair_index);
        const double value = compute_task_output(decoded, pair_index,
                                                 *active_codecs, meta.mode);
        // Single-flit result packet back to the originating MC: the low 32
        // payload bits carry the IEEE-754 result pattern.
        BitVec payload(layout.flit_bits());
        payload.set_field(0, 32, float_to_bits(static_cast<float>(value)));
        const std::uint64_t result_id =
            net.inject(node, meta.src_mc, {std::move(payload)});
        result_meta.emplace(result_id,
                            ResultMeta{meta.output_index, meta.src_mc});
        ++result.result_packets;
        task_meta.erase(it);
        return;
      }
      if (const auto it = result_meta.find(packet.id);
          it != result_meta.end()) {
        // Result packet arrived at its MC: commit the output value.
        const ResultMeta& meta = it->second;
        active_output->data()[static_cast<std::size_t>(meta.output_index)] =
            bits_to_float(
                static_cast<std::uint32_t>(packet.payloads[0].get_field(0, 32)));
        --mc_states[mc_index_of_node.at(node)].in_flight;
        ++results_done;
        result_meta.erase(it);
        return;
      }
      throw std::logic_error("NocDnaPlatform: unregistered packet delivered");
    });
  }

  // ---- walk the model ----
  dnn::Tensor current = input;
  for (std::size_t li = 0; li < model_.size(); ++li) {
    dnn::Layer& layer = model_.layer(li);
    const bool weighted = layer.kind() == dnn::LayerKind::kConv2d ||
                          layer.kind() == dnn::LayerKind::kLinear;
    if (!weighted) {
      current = layer.forward(current);  // host-side (near-memory) op
      continue;
    }

    // Extract this layer's tasks and codecs.
    std::vector<NeuronTask> tasks;
    dnn::Shape out_shape;
    LayerCodecs codecs{ValueCodec::float32(), ValueCodec::float32(),
                       ValueCodec::float32()};
    if (layer.kind() == dnn::LayerKind::kConv2d) {
      auto& conv = static_cast<dnn::Conv2d&>(layer);
      tasks = extract_conv_tasks(conv, current, static_cast<std::int32_t>(li));
      out_shape = conv.output_shape(current.shape());
      codecs = make_codecs(config_.format, config_.fixed_bits, conv.weight(),
                           conv.bias(), current);
    } else {
      auto& fc = static_cast<dnn::Linear&>(layer);
      tasks = extract_linear_tasks(fc, current, static_cast<std::int32_t>(li));
      out_shape = fc.output_shape(current.shape());
      codecs = make_codecs(config_.format, config_.fixed_bits, fc.weight(),
                           fc.bias(), current);
    }

    dnn::Tensor layer_output(out_shape);
    active_codecs = &codecs;
    active_output = &layer_output;
    results_done = 0;

    LayerRunStats layer_stats;
    layer_stats.layer_index = static_cast<std::int32_t>(li);
    layer_stats.layer_name = layer.name();
    layer_stats.tasks = tasks.size();
    const noc::WallTimer layer_timer;
    const std::uint64_t bt_at_start = net.bt().total();
    const std::uint64_t cycles_at_start = net.cycle();

    // PEs round-robin over the task index; each task is served by the MC
    // nearest its PE (memory traffic comes from the closest controller, so
    // fewer MCs per mesh means longer routes — the Fig. 12 effect).
    const auto nearest_mc =
        nearest_mc_index(net.shape(), roles_);
    for (auto& mc : mc_states) {
      mc.task_queue.clear();
      mc.prefetch.clear();
      mc.unit_busy_until = net.cycle();
      mc.in_flight = 0;
    }
    std::vector<std::int32_t> task_pe(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      task_pe[t] = roles_.pes[t % roles_.pes.size()];
      mc_states[nearest_mc[static_cast<std::size_t>(task_pe[t])]]
          .task_queue.push_back(t);
    }

    // Drive the NoC until every result has returned.
    std::uint64_t guard = 0;
    while (results_done < tasks.size()) {
      const std::uint64_t now = net.cycle();
      for (auto& mc : mc_states) {
        // Stage: the ordering unit prepares the next packet into the
        // prefetch FIFO (latency-hiding pipeline of §IV-C3).
        if (mc.prefetch.size() < config_.prefetch_depth &&
            !mc.task_queue.empty() &&
            (!config_.model_ordering_latency || now >= mc.unit_busy_until)) {
          const std::size_t t = mc.task_queue.front();
          mc.task_queue.pop_front();
          BuiltPacket packet =
              build_task_packet(tasks[t], codecs, config_.mode, layout,
                                config_.embed_pairing_index);
          packet.meta.src_mc = mc.node;
          packet.meta.dst_pe = task_pe[t];
          std::uint64_t ready = now;
          if (config_.model_ordering_latency) {
            // Pipelined unit: the packet is ready after the sort latency,
            // but the pipeline accepts the next packet after the (much
            // shorter) initiation interval.
            const auto n = static_cast<std::uint32_t>(tasks[t].weights.size());
            std::uint64_t latency = 0;
            std::uint64_t interval = 1;
            if (ordering::mode_is_separated(config_.mode)) {
              latency = unit_model.separated_cycles(n);
              interval = unit_model.separated_initiation_interval(n);
            } else if (!ordering::mode_is_baseline(config_.mode)) {
              // Every affiliated-pairing mode runs one pass through the
              // unit (the cycle model abstracts over the sort circuit).
              latency = unit_model.affiliated_cycles(n);
              interval = unit_model.initiation_interval(n);
            }
            const std::uint64_t start = std::max(now, mc.unit_busy_until);
            mc.unit_busy_until = start + interval;
            ready = start + latency;
          }
          mc.prefetch.push_back(McState::Staged{std::move(packet), ready});
        }
        // Inject: ordered packets leave once ready, throttled by the
        // outstanding-task window and the NI backlog.
        while (!mc.prefetch.empty() && now >= mc.prefetch.front().ready_at &&
               mc.in_flight < config_.max_outstanding_per_mc &&
               net.injection_backlog(mc.node) < 2) {
          BuiltPacket packet = std::move(mc.prefetch.front().packet);
          mc.prefetch.pop_front();
          const std::uint64_t id = net.inject(mc.node, packet.meta.dst_pe,
                                              std::move(packet.payloads));
          layer_stats.data_flits +=
              packet.meta.data_flits + packet.meta.index_flits;
          task_meta.emplace(id, std::move(packet.meta));
          ++mc.in_flight;
          ++result.data_packets;
          ++layer_stats.data_packets;
        }
      }
      net.step();
      if (++guard > config_.max_cycles_per_layer)
        throw std::runtime_error("NocDnaPlatform: layer " + layer.name() +
                                 " exceeded max_cycles_per_layer");
    }

    layer_stats.result_packets = tasks.size();
    layer_stats.cycles = net.cycle() - cycles_at_start;
    layer_stats.bt = net.bt().total() - bt_at_start;
    layer_stats.wall_ms = layer_timer.millis();
    result.layers.push_back(std::move(layer_stats));

    // The PE computed only the MAC; the pre-activation tensor becomes the
    // input of the next (host-side or NoC) layer.
    current = std::move(layer_output);
    active_output = nullptr;
    active_codecs = nullptr;
  }

  // Drain any remaining credits so the network ends quiescent. A network
  // that cannot drain within the budget means in-flight state would be
  // silently dropped from the results — fail loudly instead.
  if (!net.run_until_idle(config_.drain_max_cycles))
    throw std::runtime_error(
        "NocDnaPlatform: network failed to drain within " +
        std::to_string(config_.drain_max_cycles) +
        " cycles after the last layer (" +
        std::to_string(net.buffered_flits()) +
        " flits still buffered; raise AccelConfig::drain_max_cycles or "
        "investigate the stall)");

  result.output = std::move(current);
  result.total_cycles = net.cycle();
  result.bt_total = net.bt().total();
  result.bt_all_links = net.bt().total_all_links();
  result.links = net.bt().snapshot();
  result.noc_stats = net.stats();
  return result;
}

}  // namespace nocbt::accel
