#pragma once
// IEEE-754 binary32 bit-pattern access.
//
// The ordering technique keys on the raw bit pattern of each transmitted
// value; for float-32 traffic that is the IEEE-754 encoding. These helpers
// convert between a float and its pattern.

#include <bit>
#include <cstdint>

namespace nocbt {

/// Raw IEEE-754 bit pattern of a float.
[[nodiscard]] constexpr std::uint32_t float_to_bits(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}

/// Float from a raw IEEE-754 bit pattern.
[[nodiscard]] constexpr float bits_to_float(std::uint32_t bits) noexcept {
  return std::bit_cast<float>(bits);
}

}  // namespace nocbt
