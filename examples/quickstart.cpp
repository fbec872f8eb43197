// Quickstart: the core idea in 60 lines.
//
// Take a buffer of values, quantize them to fixed-8 wire patterns, pack
// them into flits, and compare the bit transitions of the natural order
// against the paper's descending-popcount ordering.
//
//   $ ./quickstart                 # defaults
//   $ ./quickstart values=4096 window=256 format=fixed8

#include <cstdio>
#include <exception>
#include <vector>

#include "analysis/bt_count.h"
#include "analysis/stream_experiment.h"
#include "common/config.h"
#include "common/rng.h"
#include "ordering/ordering.h"

using namespace nocbt;

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);
  opts.check_keys({"values", "window", "format", "values_per_flit", "seed"});
  const auto n =
      static_cast<std::size_t>(opts.get_bounded("values", 4096, 1, 1 << 24));
  // A zero window or flit width is left to the library's own check.
  const auto window =
      static_cast<std::size_t>(opts.get_bounded("window", 256, 0, 1 << 24));
  const DataFormat format =
      parse_data_format(opts.get_string("format", "fixed8"));
  const unsigned values_per_flit =
      static_cast<unsigned>(opts.get_bounded("values_per_flit", 8, 0, 4096));

  // A zero-concentrated value stream, like trained DNN weights.
  Rng rng(opts.get_int("seed", 1));
  std::vector<float> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    values.push_back(static_cast<float>(rng.laplace(0.05)));

  // Values -> wire patterns (IEEE-754 bits or 8-bit two's complement).
  const analysis::PatternStream stream = analysis::make_patterns(values, format);

  // The paper's transformation: within each window (one packet), reorder
  // values by descending '1'-bit count.
  const auto ordered =
      ordering::order_stream_descending(stream.patterns, format, window);

  // Count bit transitions between consecutive flits, before and after.
  const auto baseline =
      analysis::pattern_stream_bt(stream.patterns, format, values_per_flit);
  const auto treated =
      analysis::pattern_stream_bt(ordered, format, values_per_flit);

  std::printf("values=%zu  format=%s  window=%zu values  flit=%u values\n", n,
              to_string(format).c_str(), window, values_per_flit);
  std::printf("BT per flit, natural order : %8.2f\n", baseline.bt_per_flit());
  std::printf("BT per flit, popcount order: %8.2f\n", treated.bt_per_flit());
  std::printf("reduction                  : %8.2f%%\n",
              100.0 * (1.0 - treated.bt_per_flit() / baseline.bt_per_flit()));
  std::puts("\nFewer bit transitions means lower NoC link power - and because");
  std::puts("convolution is order-invariant, no decoder is needed at the PE.");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 2;
}
