// Tests for the content-addressed scenario cache: the hash-key domain
// (what makes two scenarios "the same measurement"), the self-checking
// record codec's exact round trip and on-disk bytes, and the store's
// corruption handling — a damaged or forged entry must degrade to a
// diagnosed miss, never a wrong row or an exception.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common/hash.h"
#include "sim/campaign.h"
#include "sim/run_journal.h"
#include "sim/scenario_cache.h"

namespace nocbt::sim {
namespace {

ScenarioSpec synthetic_spec() {
  ScenarioSpec spec;
  spec.name = "unit/uniform";
  spec.generator = GeneratorKind::kUniform;
  spec.rows = 4;
  spec.cols = 4;
  spec.packets = 24;
  spec.seed = 1234;
  return spec;
}

/// A result with every serialized field exercised: link rows, awkward
/// doubles, and an error string containing the record separators.
ScenarioResult fat_result(const ScenarioSpec& spec) {
  ScenarioResult row;
  row.spec = spec;
  row.bt_baseline = 123456789;
  row.bt_ordered = 98765;
  row.reduction = 0.1;  // not exactly representable — exercises round trip
  row.energy_baseline_pj = 1e300;
  row.energy_pj = 4.9406564584124654e-324;  // smallest subnormal
  row.power_baseline_mw = -0.0;
  row.power_mw = 3.14159265358979312;
  row.cycles = 4242;
  row.packets = 24;
  row.flits = 96;
  row.peak_backlog = 7;
  row.avg_latency = 11.5;
  row.avg_hops = 2.25;
  row.drained = true;
  row.sim.engine = noc::SimEngine::kAnalytical;
  row.sim.cycles_stepped = 10;
  row.sim.idle_cycles_skipped = 20;
  row.sim.components_stepped = 30;
  row.sim.components_skipped = 40;
  row.wall_ms_baseline = 5.5;  // must NOT survive the round trip
  row.wall_ms_ordered = 6.5;
  hw::LinkEnergyRow link;
  link.link_id = 3;
  link.info.kind = noc::LinkKind::kInjection;
  link.info.src = 1;
  link.info.dst = 2;
  link.info.src_port = -1;
  link.flits = 12;
  link.transitions = 345;
  link.energy_pj = 59.685;
  row.links.push_back(link);
  link.link_id = 9;
  link.info.kind = noc::LinkKind::kInterRouter;
  row.links.push_back(link);
  row.error = "odd, error\nwith 100% separators\r";
  return row;
}

/// The line encode_result_record wrote for fat_result(synthetic_spec()) at
/// index 17 before the codec walked one field list. Caches and journals on
/// disk hold lines like it, so it must decode and re-encode byte for byte;
/// never re-record it to make a codec change pass.
constexpr char kPinnedRecord[] =
    "rec,v1,3a831281f48a60f1efd2630ce1cc06c2,17,123456789,98765,0.1,1e+300,"
    "5e-324,-0,3.141592653589793,4242,24,96,7,11.5,2.25,1,2,10,20,30,40,2,"
    "3,0,1,2,-1,12,345,59.685,9,1,1,2,-1,12,345,59.685,"
    "odd%2c error%0awith 100%25 separators%0d,0cc277dfd782e146";

/// Field numbers in a record line: rec, v1, hash, index, 19 row fields,
/// then the link count and 8 fields per link row.
constexpr std::size_t kLinkCountField = 23;
constexpr std::size_t kFirstLinkKindField = 25;

std::vector<std::string> record_fields(const std::string& line) {
  std::vector<std::string> fields(1);
  for (const char c : line) {
    if (c == ',')
      fields.emplace_back();
    else
      fields.back() += c;
  }
  return fields;
}

/// `line` with field `i` replaced by `value` and its checksum recomputed,
/// so the field parser, not the checksum, has to refuse it.
std::string forge(const std::string& line, std::size_t i,
                  const std::string& value) {
  std::vector<std::string> fields = record_fields(line);
  fields[i] = value;
  fields.pop_back();  // the old checksum
  std::string body;
  for (const std::string& f : fields) body += (body.empty() ? "" : ",") + f;
  return body + "," + fnv1a64_hex(body);
}

/// decode_result_record, failing the test if it throws.
bool decodes(const std::string& line, DecodedRecord& decoded,
             std::string& error) {
  bool ok = false;
  EXPECT_NO_THROW(ok = decode_result_record(line, decoded, error)) << line;
  return ok;
}

/// A one-link record with a forged link count of 2^61 + 1: 8 link fields
/// times that count wraps to 8 in 64 bits, the one link row it holds.
std::string forged_link_count_record() {
  const ScenarioSpec spec = synthetic_spec();
  ScenarioResult row = fat_result(spec);
  row.links.resize(1);
  return forge(
      encode_result_record(scenario_content_key(spec, "").hash, 17, row),
      kLinkCountField, "2305843009213693953");
}

TEST(ContentKey, SyntheticScenarioIsCacheable) {
  const ContentKey key = scenario_content_key(synthetic_spec(), "");
  ASSERT_TRUE(key.cacheable) << key.why_not;
  EXPECT_EQ(key.hash.size(), 32u);
  EXPECT_TRUE(key.why_not.empty());
}

TEST(ContentKey, NameIsPresentationNotIdentity) {
  ScenarioSpec a = synthetic_spec();
  ScenarioSpec b = synthetic_spec();
  b.name = "completely/different";
  EXPECT_EQ(scenario_content_key(a, "").hash, scenario_content_key(b, "").hash);
}

TEST(ContentKey, MeasurementShapingFieldsChangeTheHash) {
  const std::string base = scenario_content_key(synthetic_spec(), "").hash;
  const auto mutated = [](auto&& mutate) {
    ScenarioSpec spec = synthetic_spec();
    mutate(spec);
    return scenario_content_key(spec, "").hash;
  };
  EXPECT_NE(mutated([](ScenarioSpec& s) { s.seed = 99; }), base);
  EXPECT_NE(mutated([](ScenarioSpec& s) { s.packets = 25; }), base);
  EXPECT_NE(mutated([](ScenarioSpec& s) {
              s.mode = ordering::OrderingMode::kAffiliated;
            }),
            base);
  EXPECT_NE(mutated([](ScenarioSpec& s) { s.rows = 8; }), base);
  EXPECT_NE(mutated([](ScenarioSpec& s) { s.window = 32; }), base);
  EXPECT_NE(mutated([](ScenarioSpec& s) {
              s.format = DataFormat::kFixed8;
            }),
            base);
  // Engine choice shapes the SimProfile counters a row carries, so it is
  // part of the identity even though BT/energy would match.
  EXPECT_NE(mutated([](ScenarioSpec& s) {
              s.engine_auto = false;
              s.engine = noc::SimEngine::kFullScan;
            }),
            base);
}

TEST(ContentKey, PersistedSyntheticKeysHoldAndOldModelKeysRetire) {
  // Stores written by earlier builds are addressed by these digests, so a
  // synthetic spec's key must not move. Model rows written before they
  // honored fixed_bits and values_per_flit hold the defaults' numbers, so
  // the model key must no longer be the one they were stored under.
  ScenarioSpec spec;
  EXPECT_EQ(scenario_content_key(spec, "").hash,
            "ff63d4b605d41d523cf1ab312aaecf15");
  spec.generator = GeneratorKind::kModel;
  EXPECT_NE(scenario_content_key(spec, "builtin-lenet-v1").hash,
            "d1ce5b33aeac3ae2dbc160874d14cf09");
}

TEST(ContentKey, ModelKeysIgnoreWindowAndSeed) {
  // An inference reads neither the window nor the seed, so a model row
  // keeps its key under another first window or root seed; a synthetic
  // row's traffic depends on both.
  const auto key = [](const ScenarioSpec& spec) {
    return scenario_content_key(spec, "builtin-lenet-v1").hash;
  };
  for (const GeneratorKind kind :
       {GeneratorKind::kModel, GeneratorKind::kUniform}) {
    ScenarioSpec spec = synthetic_spec();
    spec.generator = kind;
    ScenarioSpec window = spec;
    window.window = spec.window * 2;
    ScenarioSpec seed = spec;
    seed.seed = spec.seed + 1;
    const bool model = kind == GeneratorKind::kModel;
    EXPECT_EQ(key(window) == key(spec), model) << to_string(kind);
    EXPECT_EQ(key(seed) == key(spec), model) << to_string(kind);
  }
}

TEST(ContentKey, ModelScenariosNeedAHooksFingerprint) {
  ScenarioSpec spec = synthetic_spec();
  spec.generator = GeneratorKind::kModel;
  const ContentKey anonymous = scenario_content_key(spec, "");
  EXPECT_FALSE(anonymous.cacheable);
  EXPECT_NE(anonymous.why_not.find("ModelHooks::id"), std::string::npos)
      << anonymous.why_not;
  const ContentKey lenet = scenario_content_key(spec, "builtin-lenet-v1");
  ASSERT_TRUE(lenet.cacheable);
  const ContentKey other = scenario_content_key(spec, "builtin-other-v1");
  ASSERT_TRUE(other.cacheable);
  EXPECT_NE(lenet.hash, other.hash);
}

TEST(ContentKey, ReplayHashesTraceBytesNotThePath) {
  const std::string dir = testing::TempDir();
  const auto write = [&](const std::string& name, const std::string& body) {
    std::ofstream out(dir + name, std::ios::binary);
    out << body;
    return dir + name;
  };
  ScenarioSpec spec = synthetic_spec();
  spec.generator = GeneratorKind::kReplay;

  spec.trace_path = write("cache_trace_a.csv", "cycle,src,dst\n1,0,5\n");
  const ContentKey a = scenario_content_key(spec, "");
  ASSERT_TRUE(a.cacheable) << a.why_not;
  spec.trace_path = write("cache_trace_b.csv", "cycle,src,dst\n1,0,5\n");
  EXPECT_EQ(scenario_content_key(spec, "").hash, a.hash)
      << "same bytes at a different path must alias the same measurement";
  spec.trace_path = write("cache_trace_c.csv", "cycle,src,dst\n2,0,5\n");
  EXPECT_NE(scenario_content_key(spec, "").hash, a.hash);

  spec.trace_path = dir + "cache_trace_missing.csv";
  const ContentKey missing = scenario_content_key(spec, "");
  EXPECT_FALSE(missing.cacheable);
  EXPECT_NE(missing.why_not.find("cache_trace_missing.csv"),
            std::string::npos);
}

TEST(CampaignContentHash, PinsTheExpansion) {
  CampaignSpec camp;
  camp.generators = {GeneratorKind::kUniform};
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.base.packets = 24;
  const std::string base = campaign_content_hash(camp);
  EXPECT_EQ(base.size(), 32u);
  EXPECT_EQ(campaign_content_hash(camp), base) << "must be deterministic";

  CampaignSpec seeded = camp;
  seeded.root_seed = 43;
  EXPECT_NE(campaign_content_hash(seeded), base);
  CampaignSpec heavier = camp;
  heavier.base.packets = 25;
  EXPECT_NE(campaign_content_hash(heavier), base);
  CampaignSpec wider = camp;
  wider.modes.push_back(ordering::OrderingMode::kAffiliated);
  EXPECT_NE(campaign_content_hash(wider), base);
}

TEST(ResultRecord, RoundTripsEveryFieldExactly) {
  const ScenarioSpec spec = synthetic_spec();
  const ScenarioResult row = fat_result(spec);
  const std::string hash = scenario_content_key(spec, "").hash;
  const std::string line = encode_result_record(hash, 17, row);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one record, one line";

  DecodedRecord decoded;
  std::string error;
  ASSERT_TRUE(decode_result_record(line, decoded, error)) << error;
  EXPECT_EQ(decoded.content_hash, hash);
  EXPECT_EQ(decoded.index, 17u);
  decoded.row.spec = spec;  // the caller re-attaches the live spec
  EXPECT_TRUE(decoded.row == row)
      << "decoded row must be bit-identical (operator== covers doubles)";
  // Wall-clock is measurement overhead, not a result: it is not persisted.
  EXPECT_EQ(decoded.row.wall_ms_baseline, 0.0);
  EXPECT_EQ(decoded.row.wall_ms_ordered, 0.0);
}

TEST(ResultRecord, RejectsTruncationAndCorruption) {
  const ScenarioSpec spec = synthetic_spec();
  const std::string line =
      encode_result_record(scenario_content_key(spec, "").hash, 0,
                           fat_result(spec));
  DecodedRecord decoded;
  std::string error;
  EXPECT_FALSE(decode_result_record(line.substr(0, line.size() / 2), decoded,
                                    error));
  EXPECT_FALSE(error.empty());
  std::string flipped = line;
  flipped[10] = flipped[10] == '1' ? '2' : '1';
  EXPECT_FALSE(decode_result_record(flipped, decoded, error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_FALSE(decode_result_record("", decoded, error));
  EXPECT_FALSE(decode_result_record("not,a,record", decoded, error));
}

TEST(ResultRecord, PinnedBytesDecodeAndReencodeExactly) {
  const ScenarioSpec spec = synthetic_spec();
  DecodedRecord decoded;
  std::string error;
  ASSERT_TRUE(decodes(kPinnedRecord, decoded, error)) << error;
  EXPECT_EQ(decoded.content_hash, scenario_content_key(spec, "").hash);
  EXPECT_EQ(decoded.index, 17u);
  decoded.row.spec = spec;
  EXPECT_TRUE(decoded.row == fat_result(spec));
  EXPECT_EQ(encode_result_record(decoded.content_hash, decoded.index,
                                 decoded.row),
            kPinnedRecord);
  EXPECT_EQ(encode_result_record(decoded.content_hash, 17, fat_result(spec)),
            kPinnedRecord);
}

TEST(ResultRecord, RefusesALinkKindPastItsEnum) {
  DecodedRecord decoded;
  std::string error;
  EXPECT_FALSE(
      decodes(forge(kPinnedRecord, kFirstLinkKindField, "3"), decoded, error));
  EXPECT_NE(error.find("link row 0"), std::string::npos) << error;
}

TEST(ResultRecord, RefusesALinkCountPastTheFieldsLeft) {
  DecodedRecord decoded;
  std::string error;
  EXPECT_FALSE(decodes(forged_link_count_record(), decoded, error));
  EXPECT_NE(error.find("link-row count"), std::string::npos) << error;
}

TEST(ResultRecord, ForgedRecordsAreACacheMissAndASkippedJournalRecord) {
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash = scenario_content_key(spec, "").hash;
  const std::vector<std::string> forged = {
      forge(kPinnedRecord, kFirstLinkKindField, "3"),
      forged_link_count_record()};

  const std::string dir = testing::TempDir() + "nocbt_cache_forged";
  for (const std::string& line : forged) {
    { ScenarioCache make_dir(dir); }
    std::ofstream(dir + "/" + hash + ".row", std::ios::binary)
        << "nocbt-scenario-cache v1\n" << line << "\n";
    ScenarioCache reader(dir);
    std::optional<ScenarioResult> hit;
    EXPECT_NO_THROW(hit = reader.lookup(spec, hash));
    EXPECT_FALSE(hit.has_value());
    EXPECT_EQ(reader.misses(), 1u);
    EXPECT_EQ(reader.take_diagnostics().size(), 1u);
  }

  const std::string path = testing::TempDir() + "nocbt_journal_forged.jnl";
  { RunJournal header(path, std::string(32, 'a'), 3, /*fresh=*/true); }
  std::ofstream(path, std::ios::binary | std::ios::app)
      << kPinnedRecord << "\n" << forged[0] << "\n" << forged[1] << "\n";
  JournalContents contents;
  EXPECT_NO_THROW(contents = read_journal(path));
  ASSERT_TRUE(contents.header_ok);
  EXPECT_EQ(contents.rows.size(), 1u) << "the intact record still resumes";
  ASSERT_EQ(contents.warnings.size(), 2u);
  EXPECT_NE(contents.warnings[0].find("record 2"), std::string::npos)
      << contents.warnings[0];
  EXPECT_NE(contents.warnings[1].find("record 3"), std::string::npos)
      << contents.warnings[1];
}

TEST(RecordFuzz, EveryFieldMutantIsRefusedOrReencodedExactly) {
  // Every field but the checksum, replaced by each junk value and resealed:
  // the decoder must refuse the mutant with a diagnostic or accept a row
  // that re-encodes to the very same line, with every enum in range.
  const std::vector<std::string> junk = {
      "",    "-1",  "+1", " 1", "1x", "18446744073709551616", "1e999",
      "2",   "3",   "256"};
  const std::size_t fields = record_fields(kPinnedRecord).size();
  std::size_t refused = 0;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i + 1 < fields; ++i)
    for (const std::string& value : junk) {
      const std::string mutant = forge(kPinnedRecord, i, value);
      DecodedRecord decoded;
      std::string error;
      if (!decodes(mutant, decoded, error)) {
        ++refused;
        EXPECT_FALSE(error.empty()) << mutant;
        continue;
      }
      ++accepted;
      EXPECT_EQ(encode_result_record(decoded.content_hash, decoded.index,
                                     decoded.row),
                mutant)
          << "field " << i << " = '" << value << "'";
      EXPECT_STRNE(noc::to_string(decoded.row.sim.engine), "?") << mutant;
      for (const hw::LinkEnergyRow& link : decoded.row.links)
        EXPECT_NE(noc::to_string(link.info.kind), "?") << mutant;
    }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(accepted, 0u);
}

TEST(ScenarioCache, MemoryOnlyStoreServesHits) {
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash = scenario_content_key(spec, "").hash;
  ScenarioCache cache;  // dir-less: the co-optimizer's default memoization
  EXPECT_FALSE(cache.lookup(spec, hash).has_value());
  cache.store(hash, fat_result(spec));
  const auto hit = cache.lookup(spec, hash);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == fat_result(spec));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stores(), 1u);
}

TEST(ScenarioCache, DiskBackedEntriesSurviveProcessBoundaries) {
  const std::string dir = testing::TempDir() + "nocbt_cache_persist";
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash = scenario_content_key(spec, "").hash;
  const ScenarioResult row = fat_result(spec);
  {
    ScenarioCache writer(dir);
    writer.store(hash, row);
  }
  ScenarioCache reader(dir);  // fresh instance = fresh memory layer
  const auto hit = reader.lookup(spec, hash);
  ASSERT_TRUE(hit.has_value());
  ScenarioResult expected = row;
  expected.wall_ms_baseline = 0.0;  // wall-clock never persists
  expected.wall_ms_ordered = 0.0;
  EXPECT_TRUE(*hit == expected);
  EXPECT_TRUE(hit->spec.name == spec.name);
}

TEST(ScenarioCache, CorruptEntryIsDiagnosedMissAndOverwritable) {
  const std::string dir = testing::TempDir() + "nocbt_cache_corrupt";
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash = scenario_content_key(spec, "").hash;
  {
    ScenarioCache writer(dir);
    writer.store(hash, fat_result(spec));
  }
  // Truncate the entry mid-record — the wreckage of a killed writer on a
  // filesystem without atomic rename, or plain disk damage.
  const std::string path = dir + "/" + hash + ".row";
  {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << all.substr(0, all.size() - 20);
  }
  ScenarioCache reader(dir);
  EXPECT_FALSE(reader.lookup(spec, hash).has_value());
  const auto diags = reader.take_diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find(path), std::string::npos)
      << "diagnostic must name the file: " << diags[0];
  EXPECT_NE(diags[0].find("record 1"), std::string::npos)
      << "diagnostic must name the offending record: " << diags[0];
  EXPECT_TRUE(reader.take_diagnostics().empty()) << "take_ drains";
  // A store overwrites the damage and the next lookup is clean again.
  reader.store(hash, fat_result(spec));
  ScenarioCache again(dir);
  EXPECT_TRUE(again.lookup(spec, hash).has_value());
  EXPECT_TRUE(again.take_diagnostics().empty());
}

TEST(ScenarioCache, RejectsEntryStoredUnderTheWrongHash) {
  const std::string dir = testing::TempDir() + "nocbt_cache_alias";
  const ScenarioSpec spec = synthetic_spec();
  const std::string hash = scenario_content_key(spec, "").hash;
  const std::string other(32, 'f');
  {
    ScenarioCache writer(dir);
    writer.store(hash, fat_result(spec));
  }
  std::error_code ec;
  std::filesystem::copy_file(dir + "/" + hash + ".row",
                             dir + "/" + other + ".row",
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  ASSERT_FALSE(ec);
  ScenarioCache reader(dir);
  EXPECT_FALSE(reader.lookup(spec, other).has_value())
      << "an entry whose record names a different hash must not be trusted";
  const auto diags = reader.take_diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find(other), std::string::npos) << diags[0];
}

}  // namespace
}  // namespace nocbt::sim
