// Run a full LeNet-5 inference on the simulated NoC-based DNN accelerator
// and report bit transitions, latency, and traffic — then verify the
// NoC-computed logits against direct host inference (order invariance in
// action).
//
//   $ ./lenet_on_noc                         # 4x4 mesh, 2 MCs, O2, fixed-8
//   $ ./lenet_on_noc rows=8 cols=8 mcs=4 mode=O1 format=float32

#include <cstdio>
#include <exception>

#include "accel/platform.h"
#include "common/config.h"
#include "common/rng.h"
#include "dnn/models.h"
#include "dnn/synthetic_data.h"

using namespace nocbt;

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);
  opts.check_keys({"rows", "cols", "mcs", "format", "mode", "seed"});
  // The platform checks the mesh and MC rules; the bounds keep the casts
  // exact.
  const auto rows =
      static_cast<std::int32_t>(opts.get_bounded("rows", 4, 0, 4096));
  const auto cols =
      static_cast<std::int32_t>(opts.get_bounded("cols", 4, 0, 4096));
  const auto mcs =
      static_cast<std::int32_t>(opts.get_bounded("mcs", 2, 0, 1 << 24));
  const DataFormat format =
      parse_data_format(opts.get_string("format", "fixed8"));
  const ordering::OrderingMode mode =
      ordering::parse_ordering_mode(opts.get_string("mode", "O2"));

  // Model + one synthetic input image.
  Rng rng(opts.get_int("seed", 42));
  dnn::Sequential model = dnn::build_lenet(rng);
  dnn::fill_weights_trained_like(model, rng, 0.05);
  dnn::SyntheticDataset data(dnn::SyntheticDataset::Config{}, 7);
  const dnn::Tensor input = data.sample(1).images;

  // Host reference first (the model caches activations layer by layer).
  const dnn::Tensor host_logits = model.forward(input);

  // Platform run.
  accel::AccelConfig cfg =
      accel::AccelConfig::defaults(format, mode, rows, cols, mcs);
  accel::NocDnaPlatform platform(cfg, model);
  const accel::InferenceResult result = platform.run(input);

  std::printf("NoC %dx%d, %d MCs, %s, %s, %u-bit links\n", rows, cols, mcs,
              to_string(format).c_str(), ordering::to_string(mode).c_str(),
              cfg.noc.flit_payload_bits);
  std::printf("  inference latency : %llu cycles\n",
              static_cast<unsigned long long>(result.total_cycles));
  std::printf("  bit transitions   : %llu (in scope), %llu (all links)\n",
              static_cast<unsigned long long>(result.bt_total),
              static_cast<unsigned long long>(result.bt_all_links));
  std::printf("  packets           : %llu data + %llu results\n",
              static_cast<unsigned long long>(result.data_packets),
              static_cast<unsigned long long>(result.result_packets));
  std::printf("  mean packet hops  : %.2f, mean latency %.1f cycles\n",
              result.noc_stats.packet_hops.mean(),
              result.noc_stats.packet_latency.mean());

  std::puts("\n  per-layer phases:");
  for (const auto& layer : result.layers)
    std::printf("    %-18s %6llu tasks  %8llu flits  %9llu BT  %7llu cycles\n",
                layer.layer_name.c_str(),
                static_cast<unsigned long long>(layer.tasks),
                static_cast<unsigned long long>(layer.data_flits),
                static_cast<unsigned long long>(layer.bt),
                static_cast<unsigned long long>(layer.cycles));

  std::puts("\n  logits (NoC vs host):");
  double max_err = 0.0;
  for (std::int32_t c = 0; c < 10; ++c) {
    const double noc = result.output.at(0, c, 0, 0);
    const double host = host_logits.at(0, c, 0, 0);
    max_err = std::max(max_err, std::abs(noc - host));
    std::printf("    class %d: %9.4f vs %9.4f\n", c, noc, host);
  }
  if (format == DataFormat::kFloat32)
    std::printf("  max |error| = %.2e (float re-association only)\n", max_err);
  else
    std::printf("  max |error| = %.4f (8-bit quantization)\n", max_err);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "lenet_on_noc: %s\n", e.what());
  return 2;
}
