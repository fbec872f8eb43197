#pragma once
// Strict field parsing: the one number reader behind every persisted input
// (scenario-cache records, journal headers, packet-trace CSVs, shard specs)
// and behind the CLI's parse_int_strict / parse_double_strict.
//
// A field parses only when std::from_chars consumes all of it and the value
// fits the target type: no leading '+' or whitespace, no '-' on an unsigned
// type, no trailing characters, no hex prefix. parse_field and
// FieldReader neither throw nor allocate, so a record codec can refuse a
// bad field with a diagnostic; parse_field_or_throw is the form for
// readers that report by exception.

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace nocbt {

/// Parse all of `text` into `out` (an integer or floating-point type).
/// Returns std::errc{} on success, std::errc::result_out_of_range for a
/// number `out` cannot hold, and std::errc::invalid_argument for anything
/// else. `out` is written only on success.
template <typename T>
[[nodiscard]] std::errc parse_field(std::string_view text, T& out) noexcept {
  const char* last = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ptr != last) return std::errc::invalid_argument;
  if (ec == std::errc{}) out = value;
  return ec;
}

/// parse_field, throwing std::out_of_range("value out of range: <text>")
/// or std::invalid_argument("not <what>: <text>") when it refuses.
template <typename T>
[[nodiscard]] T parse_field_or_throw(std::string_view text, const char* what) {
  T value{};
  const std::errc ec = parse_field(text, value);
  if (ec == std::errc::result_out_of_range)
    throw std::out_of_range("value out of range: " + std::string(text));
  if (ec != std::errc{})
    throw std::invalid_argument("not " + std::string(what) + ": " +
                                std::string(text));
  return value;
}

/// Walks the `sep`-separated fields of one line in order, as views into
/// the line. An empty line holds one empty field, and "a," holds two.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line, char sep = ',') noexcept
      : rest_(line), sep_(sep) {}

  /// The next field, or an empty view once every field has been read
  /// (remaining() tells the two apart).
  std::string_view next() noexcept {
    const std::size_t cut = rest_.find(sep_);
    const std::string_view field = rest_.substr(0, cut);
    done_ = cut == std::string_view::npos;
    rest_.remove_prefix(done_ ? rest_.size() : cut + 1);
    return field;
  }

  /// Parse the next field into `out`; false on a field parse_field
  /// refuses, which includes the empty view past the last field.
  template <typename T>
  bool read(T& out) noexcept {
    return parse_field(next(), out) == std::errc{};
  }

  /// How many fields are left to read.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return done_ ? 0
                 : static_cast<std::size_t>(
                       std::count(rest_.begin(), rest_.end(), sep_)) + 1;
  }

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
};

}  // namespace nocbt
