#include "common/config.h"

#include <fstream>
#include <stdexcept>

namespace nocbt {

std::int64_t parse_int_strict(const std::string& s) {
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(s, &pos);
  if (pos != s.size())
    throw std::invalid_argument("parse_int_strict: trailing characters in '" +
                                s + "'");
  return v;
}

double parse_double_strict(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size())
    throw std::invalid_argument(
        "parse_double_strict: trailing characters in '" + s + "'");
  return v;
}

std::vector<std::string> split_csv_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

Options Options::parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("Options: expected key=value, got '" + arg + "'");
    opts.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  return opts;
}

Options Options::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("Options::parse_file: cannot open " + path);

  const auto trim = [](std::string s) {
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos) return std::string();
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
  };

  Options opts;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string entry = trim(line);
    if (entry.empty() || entry[0] == '#') continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("Options::parse_file: " + path + ":" +
                                  std::to_string(lineno) +
                                  ": expected key=value, got '" + entry + "'");
    opts.values_[trim(entry.substr(0, eq))] = trim(entry.substr(eq + 1));
  }
  return opts;
}

void Options::merge_defaults(const Options& defaults) {
  for (const auto& [key, value] : defaults.values_)
    values_.emplace(key, value);
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    // Strict parse: stoll alone accepts trailing garbage ("32abc" parses
    // as 32, silently running a typo'd sweep).
    return parse_int_strict(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("Options: '" + key + "' is not an integer: " +
                                it->second);
  }
}

std::int64_t Options::get_bounded(const std::string& key,
                                  std::int64_t fallback, std::int64_t lo,
                                  std::int64_t hi) const {
  const std::int64_t v = get_int(key, fallback);
  if (v < lo || v > hi)
    throw std::invalid_argument("option '" + key + "' must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(v));
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return parse_double_strict(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("Options: '" + key + "' is not a number: " +
                                it->second);
  }
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Options: '" + key + "' is not a bool: " + v);
}

void Options::check_keys(const std::set<std::string>& known) const {
  for (const auto& [key, value] : values_)
    if (known.count(key) == 0) {
      std::string valid;
      for (const std::string& k : known) valid += k + " ";
      if (!valid.empty()) valid.pop_back();
      throw std::invalid_argument("unknown option '" + key +
                                  "' (valid keys: " + valid + ")");
    }
}

}  // namespace nocbt
