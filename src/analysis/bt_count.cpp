#include "analysis/bt_count.h"

#include <stdexcept>

namespace nocbt::analysis {

std::vector<BitVec> flitize(std::span<const std::uint32_t> patterns,
                            DataFormat format, unsigned values_per_flit) {
  if (values_per_flit == 0)
    throw std::invalid_argument("flitize: values_per_flit == 0");
  const unsigned bits = value_bits(format);
  const unsigned flit_width = bits * values_per_flit;
  std::vector<BitVec> flits;
  if (patterns.empty()) return flits;
  flits.reserve((patterns.size() + values_per_flit - 1) / values_per_flit);

  for (std::size_t start = 0; start < patterns.size();
       start += values_per_flit) {
    BitVec flit(flit_width);
    const std::size_t len =
        std::min<std::size_t>(values_per_flit, patterns.size() - start);
    for (std::size_t v = 0; v < len; ++v)
      flit.set_field(static_cast<unsigned>(v) * bits, bits,
                     patterns[start + v]);
    flits.push_back(std::move(flit));
  }
  return flits;
}

StreamBt stream_bt(std::span<const BitVec> flits) {
  StreamBt out;
  for (std::size_t i = 1; i < flits.size(); ++i) {
    out.total_bt +=
        static_cast<std::uint64_t>(flits[i - 1].transitions_to(flits[i]));
    ++out.flit_pairs;
  }
  return out;
}

StreamBt stream_bt_reference(std::span<const BitVec> flits) {
  StreamBt out;
  for (std::size_t i = 1; i < flits.size(); ++i) {
    const BitVec& prev = flits[i - 1];
    const BitVec& cur = flits[i];
    if (prev.width() != cur.width())
      throw std::invalid_argument("stream_bt_reference: mixed flit widths");
    std::uint64_t flips = 0;
    for (unsigned b = 0; b < cur.width(); ++b)
      flips += prev.get_bit(b) != cur.get_bit(b);
    out.total_bt += flips;
    ++out.flit_pairs;
  }
  return out;
}

StreamBt pattern_stream_bt(std::span<const std::uint32_t> patterns,
                           DataFormat format, unsigned values_per_flit) {
  const auto flits = flitize(patterns, format, values_per_flit);
  return stream_bt(flits);
}

}  // namespace nocbt::analysis
