#include "ordering/greedy_chain.h"

#include <algorithm>
#include <stdexcept>

#include "ordering/bt_kernels.h"

namespace nocbt::ordering {

std::vector<std::uint32_t> greedy_min_xor_chain(
    std::span<const std::uint32_t> patterns, DataFormat format) {
  const std::size_t n = patterns.size();
  // Distances, like the seed's popcount key, only see the format's
  // transmitted bits — stray bits above value_bits(format) never ride the
  // link and must not steer the chain.
  const auto mask = static_cast<std::uint32_t>(low_mask(value_bits(format)));
  std::vector<std::uint32_t> perm;
  if (n == 0) return perm;
  perm.reserve(n);
  std::vector<bool> used(n, false);

  // Seed: highest popcount (matches the descending ordering's start).
  std::size_t current = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (pattern_popcount(patterns[i], format) >
        pattern_popcount(patterns[current], format))
      current = i;
  used[current] = true;
  perm.push_back(static_cast<std::uint32_t>(current));

  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = n;
    int best_dist = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      const int dist =
          popcount32((patterns[current] & mask) ^ (patterns[j] & mask));
      if (best == n || dist < best_dist) {
        best = j;
        best_dist = dist;
      }
    }
    used[best] = true;
    perm.push_back(static_cast<std::uint32_t>(best));
    current = best;
  }
  return perm;
}

std::vector<std::uint32_t> chain_stream_greedy(
    std::span<const std::uint32_t> patterns, DataFormat format,
    std::size_t window_values) {
  if (window_values == 0)
    throw std::invalid_argument("chain_stream_greedy: window_values == 0");
  std::vector<std::uint32_t> out;
  out.reserve(patterns.size());
  for (std::size_t start = 0; start < patterns.size();
       start += window_values) {
    const std::size_t len = std::min(window_values, patterns.size() - start);
    const auto window = patterns.subspan(start, len);
    const auto perm = greedy_chain(window, format);
    for (const std::uint32_t idx : perm) out.push_back(window[idx]);
  }
  return out;
}

}  // namespace nocbt::ordering
