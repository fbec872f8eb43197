// Produce the platform's "packet traffic trace" output (paper Fig. 7):
// run a small model on the NoC and dump one CSV row per delivered packet
// (id, src, dst, flits, inject/eject cycles, latency, hops), plus per-link
// BT utilization on stdout.
//
//   $ ./traffic_trace out=/tmp/trace.csv rows=4 cols=4 mcs=2

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <iterator>
#include <vector>

#include "accel/platform.h"
#include "common/config.h"
#include "common/rng.h"
#include "dnn/activation.h"
#include "dnn/conv2d.h"
#include "dnn/linear.h"
#include "dnn/models.h"
#include "dnn/pooling.h"
#include "dnn/synthetic_data.h"

using namespace nocbt;

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);
  opts.check_keys({"out", "rows", "cols", "mcs", "seed"});
  const std::string out_path =
      opts.get_string("out", "/tmp/nocbt_traffic_trace.csv");
  // The platform checks the mesh and MC rules; the bounds keep the casts
  // exact.
  const auto rows =
      static_cast<std::int32_t>(opts.get_bounded("rows", 4, 0, 4096));
  const auto cols =
      static_cast<std::int32_t>(opts.get_bounded("cols", 4, 0, 4096));
  const auto mcs =
      static_cast<std::int32_t>(opts.get_bounded("mcs", 2, 0, 1 << 24));

  Rng rng(opts.get_int("seed", 5));
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(1, 8, 5, 1, 2);
  model.emplace<dnn::Relu>();
  model.emplace<dnn::MaxPool2d>(2);
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 16 * 16, 10);
  dnn::fill_weights_trained_like(model, rng, 0.05);

  dnn::SyntheticDataset data(dnn::SyntheticDataset::Config{}, 6);
  const dnn::Tensor input = data.sample(1).images;

  accel::AccelConfig cfg = accel::AccelConfig::defaults(
      DataFormat::kFixed8, ordering::OrderingMode::kSeparated, rows, cols, mcs);
  accel::NocDnaPlatform platform(cfg, model);
  const accel::InferenceResult result = platform.run(input);

  const std::size_t rows_written = result.trace.dump_csv(out_path);
  std::printf("wrote %zu packet records to %s\n", rows_written, out_path.c_str());
  std::printf("total: %llu cycles, %llu BT in scope\n",
              static_cast<unsigned long long>(result.total_cycles),
              static_cast<unsigned long long>(result.bt_total));

  // The five links with the most bit transitions (the hot wires).
  std::puts("\nbusiest links (by BT):");
  std::vector<noc::LinkObservation> links = result.links;
  const auto top =
      links.begin() + std::min<std::ptrdiff_t>(5, std::ssize(links));
  std::partial_sort(links.begin(), top, links.end(),
                    [](const noc::LinkObservation& a,
                       const noc::LinkObservation& b) {
                      if (a.transitions != b.transitions)
                        return a.transitions > b.transitions;
                      return a.link_id < b.link_id;
                    });
  for (auto link = links.begin(); link != top; ++link)
    std::printf("  link %4d  %-12s %3d -> %-3d %9llu flits %11llu BT\n",
                link->link_id, noc::to_string(link->info.kind).c_str(),
                link->info.src, link->info.dst,
                static_cast<unsigned long long>(link->flits),
                static_cast<unsigned long long>(link->transitions));
  std::puts("");
  std::printf("  data+result flits delivered: %llu\n",
              static_cast<unsigned long long>(result.noc_stats.flits_delivered));
  std::printf("  mean packet latency: %.1f cycles, mean hops: %.2f\n",
              result.noc_stats.packet_latency.mean(),
              result.noc_stats.packet_hops.mean());
  std::printf("  BT per delivered flit: %.2f\n",
              static_cast<double>(result.bt_total) /
                  static_cast<double>(result.noc_stats.flits_delivered));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "traffic_trace: %s\n", e.what());
  return 2;
}
