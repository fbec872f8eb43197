#include "sim/scenario_cache.h"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "common/hash.h"
#include "noc/noc_config.h"

namespace nocbt::sim {

namespace {

constexpr const char* kCacheHeader = "nocbt-scenario-cache v1";

/// Shortest decimal string that parses back to exactly `v` — record
/// doubles must round-trip bit-identically or merged/cached reports would
/// drift from the serial run.
void append_double(std::string& out, double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{})
    throw std::logic_error("encode_result_record: cannot format double");
  out.append(buf, ptr);
}

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

bool unescape(const std::string& s, std::string& out) {
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

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last && !s.empty();
}

bool parse_i32(const std::string& s, std::int32_t& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last && !s.empty();
}

bool parse_f64(const std::string& s, double& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last && !s.empty();
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
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
  out += ',';
  out += std::to_string(index);
  const auto add_u = [&out](std::uint64_t v) {
    out += ',';
    out += std::to_string(v);
  };
  const auto add_d = [&out](double v) {
    out += ',';
    append_double(out, v);
  };
  add_u(row.bt_baseline);
  add_u(row.bt_ordered);
  add_d(row.reduction);
  add_d(row.energy_baseline_pj);
  add_d(row.energy_pj);
  add_d(row.power_baseline_mw);
  add_d(row.power_mw);
  add_u(row.cycles);
  add_u(row.packets);
  add_u(row.flits);
  add_u(row.peak_backlog);
  add_d(row.avg_latency);
  add_d(row.avg_hops);
  add_u(row.drained ? 1 : 0);
  add_u(static_cast<std::uint64_t>(row.sim.engine));
  add_u(row.sim.cycles_stepped);
  add_u(row.sim.idle_cycles_skipped);
  add_u(row.sim.components_stepped);
  add_u(row.sim.components_skipped);
  add_u(static_cast<std::uint64_t>(row.links.size()));
  for (const hw::LinkEnergyRow& link : row.links) {
    add_u(static_cast<std::uint64_t>(link.link_id));
    add_u(static_cast<std::uint64_t>(link.info.kind));
    out += ',';
    out += std::to_string(link.info.src);
    out += ',';
    out += std::to_string(link.info.dst);
    out += ',';
    out += std::to_string(link.info.src_port);
    add_u(link.flits);
    add_u(link.transitions);
    add_d(link.energy_pj);
  }
  out += ',';
  append_escaped(out, row.error);
  // Self-checking suffix: the checksum covers every preceding byte, so a
  // torn append or a flipped bit is detected before a row is trusted.
  const std::string cksum = fnv1a64_hex(out);
  out += ',';
  out += cksum;
  return out;
}

bool decode_result_record(const std::string& line, DecodedRecord& out,
                          std::string& error) {
  const std::size_t last_comma = line.rfind(',');
  if (last_comma == std::string::npos || line.compare(0, 4, "rec,") != 0) {
    error = "not a result record line";
    return false;
  }
  const std::string body = line.substr(0, last_comma);
  const std::string cksum = line.substr(last_comma + 1);
  if (fnv1a64_hex(body) != cksum) {
    error = "checksum mismatch (truncated or corrupted record)";
    return false;
  }
  const std::vector<std::string> f = split_fields(line);
  // rec,v1,hash,index + 19 measurement fields + nlinks + 8*n + error + cksum
  constexpr std::size_t kFixed = 26;
  if (f.size() < kFixed || f[0] != "rec" || f[1] != "v1") {
    error = "malformed record framing";
    return false;
  }
  out = DecodedRecord{};
  out.content_hash = f[2];
  std::uint64_t nlinks = 0;
  std::uint64_t drained = 0;
  std::uint64_t engine = 0;
  ScenarioResult& row = out.row;
  bool ok = parse_u64(f[3], out.index) && parse_u64(f[4], row.bt_baseline) &&
            parse_u64(f[5], row.bt_ordered) && parse_f64(f[6], row.reduction) &&
            parse_f64(f[7], row.energy_baseline_pj) &&
            parse_f64(f[8], row.energy_pj) &&
            parse_f64(f[9], row.power_baseline_mw) &&
            parse_f64(f[10], row.power_mw) && parse_u64(f[11], row.cycles) &&
            parse_u64(f[12], row.packets) && parse_u64(f[13], row.flits) &&
            parse_u64(f[14], row.peak_backlog) &&
            parse_f64(f[15], row.avg_latency) &&
            parse_f64(f[16], row.avg_hops) && parse_u64(f[17], drained) &&
            parse_u64(f[18], engine) &&
            parse_u64(f[19], row.sim.cycles_stepped) &&
            parse_u64(f[20], row.sim.idle_cycles_skipped) &&
            parse_u64(f[21], row.sim.components_stepped) &&
            parse_u64(f[22], row.sim.components_skipped) &&
            parse_u64(f[23], nlinks);
  if (!ok || drained > 1 || engine > 2) {
    error = "malformed measurement field";
    return false;
  }
  row.drained = drained == 1;
  row.sim.engine = static_cast<noc::SimEngine>(engine);
  if (f.size() != kFixed + 8 * nlinks) {
    error = "link-row count disagrees with the field count";
    return false;
  }
  row.links.resize(nlinks);
  for (std::uint64_t i = 0; i < nlinks; ++i) {
    const std::size_t base = 24 + 8 * i;
    hw::LinkEnergyRow& link = row.links[i];
    std::uint64_t kind = 0;
    ok = parse_i32(f[base], link.link_id) && parse_u64(f[base + 1], kind) &&
         parse_i32(f[base + 2], link.info.src) &&
         parse_i32(f[base + 3], link.info.dst) &&
         parse_i32(f[base + 4], link.info.src_port) &&
         parse_u64(f[base + 5], link.flits) &&
         parse_u64(f[base + 6], link.transitions) &&
         parse_f64(f[base + 7], link.energy_pj);
    if (!ok || kind > 3) {
      error = "malformed link field in link row " + std::to_string(i);
      return false;
    }
    link.info.kind = static_cast<noc::LinkKind>(kind);
  }
  if (!unescape(f[kFixed + 8 * nlinks - 2], row.error)) {
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
