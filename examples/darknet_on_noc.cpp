// Run the DarkNet-like model (64x64x3 input, conv/leaky-relu/maxpool stack)
// on the NOC-DNA and compare all three ordering configurations in one go.
//
//   $ ./darknet_on_noc                      # 4x4 mesh, 2 MCs, fixed-8
//   $ ./darknet_on_noc rows=8 cols=8 mcs=8 format=float32

#include <cstdio>
#include <exception>

#include "accel/platform.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/table.h"
#include "dnn/models.h"
#include "dnn/synthetic_data.h"

using namespace nocbt;
using ordering::OrderingMode;

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);
  opts.check_keys({"rows", "cols", "mcs", "format", "seed"});
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

  Rng rng(opts.get_int("seed", 43));
  dnn::Sequential model = dnn::build_darknet_small(rng);
  dnn::fill_weights_trained_like(model, rng, 0.04);

  dnn::SyntheticDataset::Config data_cfg;
  data_cfg.channels = 3;
  data_cfg.height = 64;
  data_cfg.width = 64;
  dnn::SyntheticDataset data(data_cfg, 8);
  const dnn::Tensor input = data.sample(1).images;

  std::printf("DarkNetSmall on a %dx%d NoC with %d MCs, %s\n\n", rows, cols,
              mcs, to_string(format).c_str());
  AsciiTable table({"Ordering", "BT total", "Reduction", "Cycles",
                    "Data packets"});
  std::uint64_t baseline_bt = 0;
  for (OrderingMode mode : {OrderingMode::kBaseline, OrderingMode::kAffiliated,
                            OrderingMode::kSeparated}) {
    accel::AccelConfig cfg =
        accel::AccelConfig::defaults(format, mode, rows, cols, mcs);
    accel::NocDnaPlatform platform(cfg, model);
    const accel::InferenceResult result = platform.run(input);
    if (mode == OrderingMode::kBaseline) baseline_bt = result.bt_total;
    table.add_row(
        {std::string(ordering::to_string(mode)),
         std::to_string(result.bt_total),
         format_percent(1.0 - static_cast<double>(result.bt_total) /
                                  static_cast<double>(baseline_bt)),
         std::to_string(result.total_cycles),
         std::to_string(result.data_packets)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nSeparated-ordering (O2) should show the deepest reduction —");
  std::puts("it reorders the input half of every flit as well as the weights.");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "darknet_on_noc: %s\n", e.what());
  return 2;
}
