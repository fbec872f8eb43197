#pragma once
// Round-robin arbitration on packed request masks, the building block of
// the router's separable virtual-channel and switch allocators and of the
// network interface's injection arbiter.
//
// A request mask packs one bit per requester: requester i is bit i % 64 of
// word i / 64, so a mask over n requesters spans mask_words(n) words. The
// allocators keep their masks up to date as VCs change state, and an
// arbitration is a countr_zero from the pointer rather than a walk over
// every requester.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace nocbt::noc {

/// Words a mask over `bits` requesters spans.
[[nodiscard]] constexpr std::size_t mask_words(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

inline void set_bit(std::span<std::uint64_t> mask, std::size_t i) noexcept {
  mask[i / 64] |= std::uint64_t{1} << (i % 64);
}

inline void clear_bit(std::span<std::uint64_t> mask, std::size_t i) noexcept {
  mask[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

[[nodiscard]] inline bool test_bit(std::span<const std::uint64_t> mask,
                                   std::size_t i) noexcept {
  return (mask[i / 64] >> (i % 64)) & 1U;
}

[[nodiscard]] inline bool any_bit(std::span<const std::uint64_t> mask) noexcept {
  for (const std::uint64_t word : mask)
    if (word != 0) return true;
  return false;
}

/// Index of the lowest set bit at or after `from`; mask.size() * 64 when
/// there is none.
[[nodiscard]] inline std::size_t first_bit(std::span<const std::uint64_t> mask,
                                           std::size_t from = 0) noexcept {
  for (std::size_t w = from / 64; w < mask.size(); ++w) {
    std::uint64_t word = mask[w];
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (word != 0)
      return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }
  return mask.size() * 64;
}

/// Round-robin arbiter over `size` requesters. The winner of a grant gets
/// lowest priority on the next arbitration, giving starvation freedom.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::size_t size) : size_(size) {}

  /// Grant the first requester at or after the pointer, wrapping once past
  /// the last, and move the pointer just past the winner. `requests` must
  /// span mask_words(size()) words; bits at or past size() are ignored.
  /// Returns -1, leaving the pointer, if nothing requests or the mask has
  /// the wrong length.
  [[nodiscard]] std::int32_t arbitrate(std::span<const std::uint64_t> requests) {
    if (size_ == 0 || requests.size() != mask_words(size_)) return -1;
    std::size_t idx = first_bit(requests, pointer_);
    if (idx >= size_ && pointer_ > 0) idx = first_bit(requests);
    if (idx >= size_) return -1;
    pointer_ = idx + 1 == size_ ? 0 : idx + 1;
    return static_cast<std::int32_t>(idx);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_;
  std::size_t pointer_ = 0;
};

}  // namespace nocbt::noc
