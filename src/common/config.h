#pragma once
// Tiny "key=value" option parser used by the example binaries so every
// example can be reconfigured from the command line without a CLI framework.

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace nocbt {

/// Strict full-string numeric parses: the entire string must be consumed,
/// so trailing garbage ("32abc", "0.5x") throws std::invalid_argument
/// instead of silently truncating. The single home of the stoll/stod +
/// pos-check idiom — Options getters and other CLI parsers build on these.
[[nodiscard]] std::int64_t parse_int_strict(const std::string& s);
[[nodiscard]] double parse_double_strict(const std::string& s);

/// Split a comma-separated list into its non-empty elements ("a,,b" ->
/// {"a", "b"}, "" -> {}). The shared helper behind every list-valued CLI
/// knob (generators=, meshes=, modes=, ...).
[[nodiscard]] std::vector<std::string> split_csv_list(const std::string& csv);

/// Parses arguments of the form `key=value`; anything else throws.
/// Typed getters fall back to a default when the key is absent and throw
/// std::invalid_argument on malformed values.
class Options {
 public:
  Options() = default;

  /// Parse from argv[1..argc-1].
  static Options parse(int argc, char** argv);

  /// Parse a config file with one `key=value` per line. Blank lines and
  /// lines starting with '#' are skipped; CRLF endings and surrounding
  /// whitespace are tolerated. Throws std::runtime_error on a missing file
  /// and std::invalid_argument on a malformed line.
  static Options parse_file(const std::string& path);

  /// Adopt every key of `defaults` that this Options does not set yet —
  /// the CLI merge rule: explicit arguments override the config file.
  void merge_defaults(const Options& defaults);

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// get_int with a range gate, so a negative or absurd value fails with a
  /// clear message instead of wrapping through an unsigned cast.
  [[nodiscard]] std::int64_t get_bounded(const std::string& key,
                                         std::int64_t fallback,
                                         std::int64_t lo,
                                         std::int64_t hi) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Throw std::invalid_argument on the first key outside `known`, listing
  /// every valid key, so a typo ("mdoe=") fails loudly instead of leaving
  /// its option at the default.
  void check_keys(const std::set<std::string>& known) const;

  /// All parsed key/value pairs (for echoing the configuration).
  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace nocbt
