#pragma once
// Flitization of value streams and bit-transition counting over flit
// sequences — the measurement core of the no-NoC experiments (Table I).

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/data_format.h"

namespace nocbt::analysis {

/// Pack a pattern stream into flits of `values_per_flit` slots of
/// `value_bits(format)` bits each (slot v at bit offset v * value_bits).
/// The last flit is zero-padded. Throws std::invalid_argument when
/// values_per_flit is 0.
[[nodiscard]] std::vector<BitVec> flitize(std::span<const std::uint32_t> patterns,
                                          DataFormat format,
                                          unsigned values_per_flit);

/// BT tally over a flit sequence traversing one link back to back.
struct StreamBt {
  std::uint64_t total_bt = 0;   ///< sum over consecutive flit pairs
  std::uint64_t flit_pairs = 0; ///< number of consecutive pairs compared
  [[nodiscard]] double bt_per_flit() const noexcept {
    return flit_pairs ? static_cast<double>(total_bt) / flit_pairs : 0.0;
  }
};

/// Count transitions between consecutive flits (the paper's "BTs between
/// two consecutive flits"; the initial wire state is not charged). The
/// tally rides BitVec's word-packed XOR+popcount path.
[[nodiscard]] StreamBt stream_bt(std::span<const BitVec> flits);

/// Naive per-bit reference implementation of stream_bt, retained so
/// differential tests can pin the word-packed path (including
/// non-multiple-of-64 flit widths) and micro_ordering can benchmark the
/// two against each other. Requires all flits to share one width.
[[nodiscard]] StreamBt stream_bt_reference(std::span<const BitVec> flits);

/// Convenience: flitize then count.
[[nodiscard]] StreamBt pattern_stream_bt(std::span<const std::uint32_t> patterns,
                                         DataFormat format,
                                         unsigned values_per_flit);

}  // namespace nocbt::analysis
