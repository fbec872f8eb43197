#pragma once
// Content-addressed scenario cache: a stable 128-bit hash over every
// campaign-shaping knob of a ScenarioSpec (plus its derived per-scenario
// seed) maps to a persisted ScenarioResult record, so an identical
// spec+seed never re-simulates — across reruns, across shards, and across
// front-ends (campaign sweeps and co-optimizer searches share hits).
//
// Hash-key domain: every ScenarioSpec field that shapes the measurement —
// workload, mesh, codec, ordering mode, traffic volume and distribution,
// energy point, engine choice, seed, stall guard — plus the ModelHooks
// fingerprint for model workloads and the *bytes* of the trace file for
// replay workloads (a path alone could alias different recordings). A
// model workload's window and seed are left out: an inference reads
// neither, so a row keeps its key whichever first window and root seed
// its campaign names. The
// scenario/campaign *names* and every output-side field are excluded:
// names are presentation (re-attached from the live expansion on lookup),
// and wall-clock/profile numbers are results, not identity — wall-clock is
// nondeterministic by nature, and the deterministic profile counters are
// determined by the hashed engine choice, so hashing either would only
// split identical measurements across keys.
//
// Record format: one comma-separated line: `rec,v1,<hash>,<index>`, the
// row fields, the link count, each link's fields, the %-escaped error
// string, and an FNV-1a checksum of every preceding byte. The row and link
// field orders live in one list each (scenario_cache.cpp), which encode
// and decode both walk. Doubles are emitted via std::to_chars
// shortest-round-trip so a decoded row is bit-identical to the in-memory
// one. Decode reads each field with the strict parse_field
// (common/field_reader.h), refuses an enum value past its last
// enumerator, and checks the link count against the fields left before it
// allocates. A corrupted, truncated or forged record is rejected with a
// diagnostic naming the file and the offending record, counted as a miss,
// and overwritten by the next store — a damaged cache degrades to
// re-simulation, never to wrong rows.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "sim/campaign.h"

namespace nocbt::sim {

/// A scenario's content address, or why it cannot have one.
struct ContentKey {
  bool cacheable = false;
  std::string hash;     ///< 32 hex chars when cacheable
  std::string why_not;  ///< reason when not (unhashable hooks, missing trace)
};

/// Feed every ScenarioSpec field a row depends on, except its name and
/// trace_path, into `h` in scenario_content_key's order. A model spec
/// skips window and seed, which an inference never reads. With
/// `timing_only`, skip the fields a row reads but its schedule and timing
/// run never do — mode, energy_per_transition_pj, frequency_mhz and, for a
/// synthetic spec, input_seed (a model's O0 inference reads it) — for the
/// ScheduleCache key: rows differing only in those share one
/// materialization and one timing run.
void hash_spec_fields(StableHash& h, const ScenarioSpec& spec,
                      bool timing_only);

/// Content address of one expanded scenario. `hooks_id` is the
/// ModelHooks::id fingerprint — required (non-empty) for kModel scenarios,
/// ignored otherwise. kReplay scenarios hash the trace file's bytes; an
/// unreadable trace makes the scenario uncacheable (validation will name
/// the file when the scenario actually runs).
[[nodiscard]] ContentKey scenario_content_key(const ScenarioSpec& spec,
                                              const std::string& hooks_id);

/// Fingerprint of everything a campaign's row set depends on: the ordered
/// expansion's scenario names and content hashes. Two CampaignSpecs with
/// equal hashes produce byte-identical report rows; the resume journal
/// refuses to mix rows across differing hashes.
[[nodiscard]] std::string campaign_content_hash(const CampaignSpec& spec);

/// Serialize one completed row as a single self-checking record line (no
/// trailing newline). `index` is the row's position in the campaign
/// expansion (0 for free-standing cache entries).
[[nodiscard]] std::string encode_result_record(const std::string& content_hash,
                                               std::uint64_t index,
                                               const ScenarioResult& row);

struct DecodedRecord {
  std::string content_hash;
  std::uint64_t index = 0;
  /// Measurements only — `row.spec` is default-constructed; the caller
  /// re-attaches the live spec (ScenarioCache::lookup does this for you).
  ScenarioResult row;
};

/// Parse a record line. Returns false with `error` describing the defect
/// (truncation, checksum mismatch, malformed or out-of-range field, a link
/// count the line does not hold) — never throws on bad input, so callers
/// decide whether a bad record is fatal.
[[nodiscard]] bool decode_result_record(const std::string& line,
                                        DecodedRecord& out,
                                        std::string& error);

/// The persisted store: one record file per content hash under `dir`
/// (created on construction), fronted by an in-memory layer. With an empty
/// `dir` the cache is memory-only — the co-optimizer's default memoization.
/// Thread-safe; concurrent stores of the same hash are benign (atomic
/// temp-file + rename, last writer wins with identical bytes).
class ScenarioCache {
 public:
  explicit ScenarioCache(std::string dir = "");

  /// The cached row for `hash`, with `spec` re-attached, or nullopt on a
  /// miss. Corrupt entries are diagnosed (see take_diagnostics) and
  /// treated as misses.
  [[nodiscard]] std::optional<ScenarioResult> lookup(const ScenarioSpec& spec,
                                                     const std::string& hash);

  /// Persist `row` under `hash` (memory layer + record file when backed).
  void store(const std::string& hash, const ScenarioResult& row);

  /// Preload the memory layer only (journal warm-up) — no disk write.
  void insert_memory(const std::string& hash, const ScenarioResult& row);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  [[nodiscard]] std::size_t stores() const;

  /// Drain accumulated corruption diagnostics, each naming the file and
  /// offending record.
  [[nodiscard]] std::vector<std::string> take_diagnostics();

 private:
  [[nodiscard]] std::string entry_path(const std::string& hash) const;

  std::string dir_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, ScenarioResult> memory_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t stores_ = 0;
  std::vector<std::string> diagnostics_;
};

}  // namespace nocbt::sim
