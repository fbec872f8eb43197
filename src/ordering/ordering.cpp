#include "ordering/ordering.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace nocbt::ordering {

std::string to_string(OrderingMode mode) {
  switch (mode) {
    case OrderingMode::kBaseline: return "O0-baseline";
    case OrderingMode::kAffiliated: return "O1-affiliated";
    case OrderingMode::kSeparated: return "O2-separated";
    case OrderingMode::kChain: return "chain";
    case OrderingMode::kHdChain: return "hdchain";
    case OrderingMode::kBucket: return "bucket";
    case OrderingMode::kHybrid: return "hybrid";
    case OrderingMode::kTwoFlit: return "twoflit";
  }
  return "?";
}

OrderingMode parse_ordering_mode(const std::string& s) {
  if (s == "O0" || s == "O0-baseline" || s == "baseline")
    return OrderingMode::kBaseline;
  if (s == "O1" || s == "O1-affiliated" || s == "affiliated")
    return OrderingMode::kAffiliated;
  if (s == "O2" || s == "O2-separated" || s == "separated")
    return OrderingMode::kSeparated;
  if (s == "chain" || s == "greedy-chain") return OrderingMode::kChain;
  if (s == "hdchain" || s == "hd-chain") return OrderingMode::kHdChain;
  if (s == "bucket" || s == "bucket-sort") return OrderingMode::kBucket;
  if (s == "hybrid") return OrderingMode::kHybrid;
  if (s == "twoflit" || s == "two-flit") return OrderingMode::kTwoFlit;
  throw std::invalid_argument(
      "parse_ordering_mode: unknown mode '" + s +
      "' (want O0 | O0-baseline | baseline | O1 | O1-affiliated | affiliated "
      "| O2 | O2-separated | separated | chain | greedy-chain | hdchain | "
      "hd-chain | bucket | bucket-sort | hybrid | twoflit | two-flit)");
}

std::string_view mode_strategy_name(OrderingMode mode) noexcept {
  switch (mode) {
    case OrderingMode::kBaseline: return "arrival";
    case OrderingMode::kAffiliated: return "popcount";
    case OrderingMode::kSeparated: return "popcount";
    case OrderingMode::kChain: return "chain";
    case OrderingMode::kHdChain: return "hdchain";
    case OrderingMode::kBucket: return "bucket";
    case OrderingMode::kHybrid: return "hybrid";
    case OrderingMode::kTwoFlit: return "twoflit";
  }
  return "arrival";
}

std::string short_mode_name(OrderingMode mode) {
  switch (mode) {
    case OrderingMode::kBaseline: return "O0";
    case OrderingMode::kAffiliated: return "O1";
    case OrderingMode::kSeparated: return "O2";
    default: return std::string(mode_strategy_name(mode));
  }
}

std::vector<OrderingMode> parse_ordering_mode_list(const std::string& csv) {
  std::vector<OrderingMode> modes;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (token.empty())
      throw std::invalid_argument(
          "parse_ordering_mode_list: empty mode in list '" + csv + "'");
    modes.push_back(parse_ordering_mode(token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return modes;
}

const std::vector<OrderingMode>& all_ordering_modes() {
  static const std::vector<OrderingMode> modes{
      OrderingMode::kBaseline, OrderingMode::kAffiliated,
      OrderingMode::kSeparated, OrderingMode::kChain,
      OrderingMode::kHdChain,   OrderingMode::kBucket,
      OrderingMode::kHybrid,    OrderingMode::kTwoFlit};
  return modes;
}

std::vector<std::uint32_t> popcount_descending_order(
    std::span<const std::uint32_t> patterns, DataFormat format) {
  // Stable counting sort on the '1'-bit count: count each bucket, turn the
  // counts into placement offsets from the highest bucket down, then place
  // indices in arrival order within their bucket. One slot per possible
  // count of a 32-bit pattern keeps the buckets off the heap.
  std::array<std::uint32_t, 33> offset{};
  for (const std::uint32_t p : patterns) ++offset[pattern_popcount(p, format)];
  std::uint32_t running = 0;
  for (std::size_t c = offset.size(); c-- > 0;)
    running += std::exchange(offset[c], running);
  std::vector<std::uint32_t> perm(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i)
    perm[offset[pattern_popcount(patterns[i], format)]++] =
        static_cast<std::uint32_t>(i);
  return perm;
}

std::vector<std::uint32_t> inverse_permutation(
    std::span<const std::uint32_t> perm) {
  std::vector<std::uint32_t> inv(perm.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i)
    inv[perm[i]] = i;
  return inv;
}

std::vector<std::uint32_t> separated_pairing_index(
    std::span<const std::uint32_t> weight_perm,
    std::span<const std::uint32_t> input_perm) {
  if (weight_perm.size() != input_perm.size())
    throw std::invalid_argument("separated_pairing_index: size mismatch");
  const auto inv_input = inverse_permutation(input_perm);
  std::vector<std::uint32_t> pair_index(weight_perm.size());
  for (std::size_t i = 0; i < weight_perm.size(); ++i)
    pair_index[i] = inv_input[weight_perm[i]];
  return pair_index;
}

bool is_permutation(std::span<const std::uint32_t> perm, std::size_t n) {
  if (perm.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const std::uint32_t idx : perm) {
    if (idx >= n || seen[idx]) return false;
    seen[idx] = true;
  }
  return true;
}

std::vector<std::uint32_t> order_stream_descending(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values) {
  if (window_values == 0)
    throw std::invalid_argument("order_stream_descending: window_values == 0");
  std::vector<std::uint32_t> out;
  out.reserve(patterns.size());
  for (std::size_t start = 0; start < patterns.size();
       start += window_values) {
    const std::size_t len =
        std::min(window_values, patterns.size() - start);
    const auto window = patterns.subspan(start, len);
    const auto perm = popcount_descending_order(window, format);
    for (const std::uint32_t idx : perm) out.push_back(window[idx]);
  }
  return out;
}

}  // namespace nocbt::ordering
