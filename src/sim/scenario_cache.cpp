#include "sim/scenario_cache.h"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include <unistd.h>

#include "common/field_reader.h"
#include "common/hash.h"
#include "noc/noc_config.h"

namespace nocbt::sim {

namespace {

constexpr const char* kCacheHeader = "nocbt-scenario-cache v1";

/// %-escape the record separators so an arbitrary error string stays on
/// one line and one field.
void append_escaped(std::string& out, const std::string& s) {
  static const char* hex = "0123456789abcdef";
  for (const char c : s) {
    if (c == '%' || c == ',' || c == '\n' || c == '\r') {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += hex[byte >> 4];
      out += hex[byte & 0xF];
    } else {
      out += c;
    }
  }
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool unescape(std::string_view s, std::string& out) {
  out.clear();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) return false;
    const int hi = hex_nibble(s[i + 1]);
    const int lo = hex_nibble(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return true;
}

/// The record's row fields, in on-disk order: encode_result_record writes
/// and decode_result_record reads this one list. `Row` is ScenarioResult
/// or const ScenarioResult.
template <typename Row, typename Visit>
void for_each_row_field(Row& row, Visit&& visit) {
  visit(row.bt_baseline);
  visit(row.bt_ordered);
  visit(row.reduction);
  visit(row.energy_baseline_pj);
  visit(row.energy_pj);
  visit(row.power_baseline_mw);
  visit(row.power_mw);
  visit(row.cycles);
  visit(row.packets);
  visit(row.flits);
  visit(row.peak_backlog);
  visit(row.avg_latency);
  visit(row.avg_hops);
  visit(row.drained);
  visit(row.sim.engine);
  visit(row.sim.cycles_stepped);
  visit(row.sim.idle_cycles_skipped);
  visit(row.sim.components_stepped);
  visit(row.sim.components_skipped);
}

/// Each link row's fields, in on-disk order; the link rows follow the row
/// fields and the link count.
template <typename Link, typename Visit>
constexpr void for_each_link_field(Link& link, Visit&& visit) {
  visit(link.link_id);
  visit(link.info.kind);
  visit(link.info.src);
  visit(link.info.dst);
  visit(link.info.src_port);
  visit(link.flits);
  visit(link.transitions);
  visit(link.energy_pj);
}

/// Fields per link row, counted from the list above.
constexpr std::size_t kLinkFields = [] {
  hw::LinkEnergyRow link;
  std::size_t n = 0;
  for_each_link_field(link, [&n](auto&) { ++n; });
  return n;
}();

/// The last value of each field stored as a small number: decode refuses
/// anything past it.
constexpr bool last_value(bool) { return true; }
constexpr noc::SimEngine last_value(noc::SimEngine) {
  return noc::SimEngine::kAnalytical;
}
constexpr noc::LinkKind last_value(noc::LinkKind) {
  return noc::LinkKind::kEjection;
}

/// Append ",v": integers in decimal, bools and enums as their number, and
/// doubles in std::to_chars's shortest round-trip form, so a decoded row is
/// bit-identical to the in-memory one.
template <typename T>
void write_field(std::string& out, T v) {
  if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    write_field(out, static_cast<std::uint64_t>(v));
  } else {
    char buf[32];  // fits any 64-bit integer and any shortest double
    out += ',';
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
}

/// Read the next field into `v`; false on a malformed field or on an enum
/// or bool past its last value.
template <typename T>
bool read_field(FieldReader& in, T& v) {
  if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    std::uint64_t raw = 0;
    if (!in.read(raw) || raw > static_cast<std::uint64_t>(last_value(v)))
      return false;
    v = static_cast<T>(raw);
    return true;
  } else {
    return in.read(v);
  }
}

/// Feed the bytes of `path` into `h`. Returns false when unreadable.
bool hash_file_bytes(StableHash& h, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  h.add(buf.str());
  return true;
}

}  // namespace

void hash_spec_fields(StableHash& h, const ScenarioSpec& spec,
                      bool timing_only) {
  const bool model = spec.generator == GeneratorKind::kModel;
  h.add(to_string(spec.generator));
  h.add(spec.rows);
  h.add(spec.cols);
  h.add(spec.num_vcs);
  h.add(spec.vc_buffer_depth);
  h.add(to_string(spec.format));
  if (!timing_only) h.add(ordering::to_string(spec.mode));
  h.add(static_cast<std::uint64_t>(spec.values_per_flit));
  h.add(static_cast<std::uint64_t>(spec.fixed_bits));
  if (!model) h.add(spec.window);
  h.add(spec.packets);
  h.add(spec.injection_rate);
  h.add(to_string(spec.value_dist));
  h.add(spec.dist_a);
  h.add(spec.dist_b);
  h.add(spec.hotspot_fraction);
  h.add(spec.hotspot_node);
  h.add(spec.burst_len);
  h.add(spec.burst_gap);
  h.add(spec.num_mcs);
  h.add(spec.model_seed);
  if (!timing_only || model) h.add(spec.input_seed);
  h.add(spec.model);
  h.add(spec.placement);
  h.add(spec.tiles_per_layer);
  if (!timing_only) {
    h.add(spec.energy_per_transition_pj);
    h.add(spec.frequency_mhz);
  }
  if (!model) h.add(spec.seed);
  h.add(spec.max_cycles);
  h.add(std::string(noc::to_string(spec.engine)));
  h.add(spec.engine_auto);
}

ContentKey scenario_content_key(const ScenarioSpec& spec,
                                const std::string& hooks_id) {
  StableHash h;
  h.add("nocbt-scenario-v1");
  hash_spec_fields(h, spec, /*timing_only=*/false);

  ContentKey key;
  if (spec.generator == GeneratorKind::kModel) {
    if (hooks_id.empty()) {
      key.why_not =
          "model workload has no ModelHooks::id fingerprint, so its "
          "measurements are not content-addressable";
      return key;
    }
    h.add("hooks");
    h.add(hooks_id);
    // Retires the keys of model rows stored before model runs honored
    // fixed_bits and values_per_flit: those rows hold the defaults'
    // numbers.
    h.add("model-codec-geometry");
  }
  if (spec.generator == GeneratorKind::kReplay) {
    // The trace *bytes* are the workload; the path is just a location.
    h.add("trace");
    if (!hash_file_bytes(h, spec.trace_path)) {
      key.why_not = "trace file '" + spec.trace_path +
                    "' is unreadable, so the replay workload cannot be "
                    "content-addressed";
      return key;
    }
  }
  key.cacheable = true;
  key.hash = h.hex();
  return key;
}

std::string campaign_content_hash(const CampaignSpec& spec) {
  StableHash h;
  h.add("nocbt-campaign-v1");
  const std::vector<ScenarioSpec> scenarios = spec.expand();
  h.add(static_cast<std::uint64_t>(scenarios.size()));
  for (const ScenarioSpec& s : scenarios) {
    h.add(s.name);
    const ContentKey key = scenario_content_key(s, spec.hooks.id);
    h.add(key.cacheable ? key.hash : "uncacheable");
  }
  return h.hex();
}

std::string encode_result_record(const std::string& content_hash,
                                 std::uint64_t index,
                                 const ScenarioResult& row) {
  std::string out = "rec,v1,";
  out += content_hash;
  write_field(out, index);
  const auto field = [&out](auto v) { write_field(out, v); };
  for_each_row_field(row, field);
  write_field(out, static_cast<std::uint64_t>(row.links.size()));
  for (const hw::LinkEnergyRow& link : row.links)
    for_each_link_field(link, field);
  out += ',';
  append_escaped(out, row.error);
  // Self-checking suffix: the checksum covers every preceding byte, so a
  // torn append or a flipped bit is detected before a row is trusted.
  out += ',' + fnv1a64_hex(out);
  return out;
}

bool decode_result_record(const std::string& line, DecodedRecord& out,
                          std::string& error) {
  if (!line.starts_with("rec,v1,")) {
    error = "not a v1 result record line";
    return false;
  }
  const std::string_view body(line.data(), line.rfind(','));
  if (fnv1a64_hex(body) != std::string_view(line).substr(body.size() + 1)) {
    error = "checksum mismatch (truncated or corrupted record)";
    return false;
  }
  FieldReader in(body);
  in.next();  // "rec"
  in.next();  // "v1"
  out = DecodedRecord{};
  out.content_hash = in.next();
  ScenarioResult& row = out.row;
  bool ok = read_field(in, out.index);
  const auto field = [&](auto& v) { ok = ok && read_field(in, v); };
  for_each_row_field(row, field);
  std::uint64_t nlinks = 0;
  if (!ok || !read_field(in, nlinks)) {
    error = "malformed measurement field";
    return false;
  }
  // The link rows and the error field are all that is left: check the
  // count against them before allocating, so a forged count cannot ask
  // for more links than the line holds.
  const std::size_t left = in.remaining();
  if (left == 0 || (left - 1) % kLinkFields != 0 ||
      (left - 1) / kLinkFields != nlinks) {
    error = "link-row count disagrees with the field count";
    return false;
  }
  row.links.resize(nlinks);
  for (std::size_t i = 0; i < row.links.size(); ++i) {
    for_each_link_field(row.links[i], field);
    if (!ok) {
      error = "malformed link field in link row " + std::to_string(i);
      return false;
    }
  }
  if (!unescape(in.next(), row.error)) {
    error = "malformed escape in error field";
    return false;
  }
  return true;
}

ScenarioCache::ScenarioCache(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
      throw std::runtime_error("ScenarioCache: cannot create cache_dir '" +
                               dir_ + "': " + ec.message());
  }
}

std::string ScenarioCache::entry_path(const std::string& hash) const {
  return dir_ + "/" + hash + ".row";
}

std::optional<ScenarioResult> ScenarioCache::lookup(const ScenarioSpec& spec,
                                                    const std::string& hash) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memory_.find(hash);
    if (it != memory_.end()) {
      ++hits_;
      ScenarioResult row = it->second;
      row.spec = spec;
      return row;
    }
  }
  if (dir_.empty()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    return std::nullopt;
  }
  const std::string path = entry_path(hash);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    return std::nullopt;
  }
  std::string header;
  std::string line;
  std::string detail;
  DecodedRecord decoded;
  bool ok = static_cast<bool>(std::getline(in, header)) &&
            static_cast<bool>(std::getline(in, line));
  if (!ok) {
    detail = "truncated entry (missing header or record line)";
  } else if (header != kCacheHeader) {
    detail = "unrecognized header '" + header + "'";
  } else if (!decode_result_record(line, decoded, detail)) {
    // detail already set
  } else if (decoded.content_hash != hash) {
    detail = "record carries content hash " + decoded.content_hash +
             " but the entry is addressed as " + hash;
  } else {
    decoded.row.spec = spec;
    const std::lock_guard<std::mutex> lock(mutex_);
    ++hits_;
    memory_.emplace(hash, decoded.row);
    return decoded.row;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  diagnostics_.push_back("scenario cache entry " + path + ": record 1: " +
                         detail + " — entry ignored (will re-simulate)");
  return std::nullopt;
}

void ScenarioCache::store(const std::string& hash, const ScenarioResult& row) {
  if (!dir_.empty()) {
    static std::atomic<std::uint64_t> counter{0};
    const std::string path = entry_path(hash);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(counter.fetch_add(1));
    {
      std::ofstream out(tmp, std::ios::binary);
      if (!out)
        throw std::runtime_error("ScenarioCache: cannot open " + tmp);
      out << kCacheHeader << '\n'
          << encode_result_record(hash, 0, row) << '\n';
      if (!out)
        throw std::runtime_error("ScenarioCache: write failed for " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("ScenarioCache: cannot publish entry " + path);
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  memory_[hash] = row;
  ++stores_;
}

void ScenarioCache::insert_memory(const std::string& hash,
                                  const ScenarioResult& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  memory_[hash] = row;
}

std::size_t ScenarioCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t ScenarioCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t ScenarioCache::stores() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stores_;
}

std::vector<std::string> ScenarioCache::take_diagnostics() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(diagnostics_, {});
}

}  // namespace nocbt::sim
