// Tests for the checkpoint/resume journal and the shard merge step: header
// validation (the spec-hash gate), append/replay round trips, tolerance of
// the torn records a kill leaves behind, and merge_campaign's
// byte-identity-enabling row reassembly.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "sim/run_journal.h"
#include "sim/scenario_cache.h"

namespace nocbt::sim {
namespace {

CampaignSpec tiny_campaign() {
  CampaignSpec camp;
  camp.name = "journal-unit";
  camp.root_seed = 7;
  camp.generators = {GeneratorKind::kUniform};
  camp.modes = {ordering::OrderingMode::kBaseline,
                ordering::OrderingMode::kSeparated};
  camp.base.packets = 8;
  return camp;
}

/// Deterministic fake measurements — journal tests never need to simulate.
ScenarioResult fake_row(const ScenarioSpec& spec, std::uint64_t salt) {
  ScenarioResult row;
  row.spec = spec;
  row.bt_baseline = 1000 + salt;
  row.bt_ordered = 900 + salt;
  row.reduction = 0.1 + static_cast<double>(salt) / 1000.0;
  row.cycles = 50 + salt;
  row.packets = 8;
  row.flits = 32;
  row.drained = true;
  return row;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}

TEST(RunJournal, AppendThenReadRoundTrips) {
  const std::string path = testing::TempDir() + "nocbt_journal_roundtrip.jnl";
  const CampaignSpec camp = tiny_campaign();
  const std::string hash = campaign_content_hash(camp);
  const auto scenarios = camp.expand();
  {
    RunJournal journal(path, hash, scenarios.size(), /*fresh=*/true);
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      journal.append(scenario_content_key(scenarios[i], "").hash, i,
                     fake_row(scenarios[i], i));
  }
  const JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.exists);
  ASSERT_TRUE(contents.header_ok);
  EXPECT_EQ(contents.campaign_hash, hash);
  EXPECT_EQ(contents.total, scenarios.size());
  EXPECT_TRUE(contents.warnings.empty());
  ASSERT_EQ(contents.rows.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string key = scenario_content_key(scenarios[i], "").hash;
    ASSERT_TRUE(contents.rows.count(key));
    ScenarioResult expected = fake_row(scenarios[i], i);
    ScenarioResult got = contents.rows.at(key);
    got.spec = scenarios[i];  // consumers re-attach the live spec
    EXPECT_TRUE(got == expected);
    EXPECT_EQ(contents.indexes.at(key), i);
  }
}

TEST(RunJournal, ReopeningAppendsInsteadOfTruncating) {
  const std::string path = testing::TempDir() + "nocbt_journal_reopen.jnl";
  const CampaignSpec camp = tiny_campaign();
  const std::string hash = campaign_content_hash(camp);
  const auto scenarios = camp.expand();
  {
    RunJournal first(path, hash, scenarios.size(), /*fresh=*/true);
    first.append(scenario_content_key(scenarios[0], "").hash, 0,
                 fake_row(scenarios[0], 0));
  }
  {
    RunJournal resumed(path, hash, scenarios.size(), /*fresh=*/false);
    resumed.append(scenario_content_key(scenarios[1], "").hash, 1,
                   fake_row(scenarios[1], 1));
  }
  EXPECT_EQ(read_journal(path).rows.size(), 2u);
}

TEST(RunJournal, MissingFileAndBadHeaderAreSignalledNotThrown) {
  const JournalContents missing =
      read_journal(testing::TempDir() + "nocbt_journal_nope.jnl");
  EXPECT_FALSE(missing.exists);
  EXPECT_TRUE(missing.warnings.empty());

  const std::string path = testing::TempDir() + "nocbt_journal_badhdr.jnl";
  write_file(path, "this is not a journal\n");
  const JournalContents bad = read_journal(path);
  EXPECT_TRUE(bad.exists);
  EXPECT_FALSE(bad.header_ok);
  ASSERT_EQ(bad.warnings.size(), 1u);
  EXPECT_NE(bad.warnings[0].find(path), std::string::npos) << bad.warnings[0];
}

TEST(RunJournal, TornFinalRecordIsRejectedByNameAndRestSurvives) {
  const std::string path = testing::TempDir() + "nocbt_journal_torn.jnl";
  const CampaignSpec camp = tiny_campaign();
  const std::string hash = campaign_content_hash(camp);
  const auto scenarios = camp.expand();
  {
    RunJournal journal(path, hash, scenarios.size(), /*fresh=*/true);
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      journal.append(scenario_content_key(scenarios[i], "").hash, i,
                     fake_row(scenarios[i], i));
  }
  // Tear the last record in half — what a kill mid-append leaves behind.
  std::string body = read_file(path);
  const std::size_t cut = body.rfind("rec,");
  ASSERT_NE(cut, std::string::npos);
  write_file(path, body.substr(0, cut + 30));

  const JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.header_ok);
  EXPECT_EQ(contents.rows.size(), scenarios.size() - 1)
      << "intact records must still resume";
  ASSERT_EQ(contents.warnings.size(), 1u);
  EXPECT_NE(contents.warnings[0].find(path), std::string::npos)
      << "warning must name the file: " << contents.warnings[0];
  EXPECT_NE(contents.warnings[0].find("record 2"), std::string::npos)
      << "warning must name the offending record: " << contents.warnings[0];
}

TEST(RunJournal, CorruptMiddleRecordIsSkippedOthersKept) {
  const std::string path = testing::TempDir() + "nocbt_journal_flip.jnl";
  const CampaignSpec camp = tiny_campaign();
  const std::string hash = campaign_content_hash(camp);
  const auto scenarios = camp.expand();
  {
    RunJournal journal(path, hash, scenarios.size(), /*fresh=*/true);
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      journal.append(scenario_content_key(scenarios[i], "").hash, i,
                     fake_row(scenarios[i], i));
  }
  std::string body = read_file(path);
  const std::size_t first_rec = body.find("rec,");
  ASSERT_NE(first_rec, std::string::npos);
  body[first_rec + 20] = body[first_rec + 20] == '1' ? '2' : '1';
  write_file(path, body);

  const JournalContents contents = read_journal(path);
  EXPECT_EQ(contents.rows.size(), scenarios.size() - 1);
  ASSERT_EQ(contents.warnings.size(), 1u);
  EXPECT_NE(contents.warnings[0].find("record 1"), std::string::npos)
      << contents.warnings[0];
}

TEST(JournalFuzz, SeededTruncationsAndFlipsKeepEveryIntactRecord) {
  // A 3-row journal of rows with link rows, damaged per seed: each record
  // may get one byte flipped (never into a newline, which would split it
  // into two lines), and the file may be cut anywhere past the header.
  const std::string path = testing::TempDir() + "nocbt_journal_fuzz.jnl";
  std::vector<ScenarioResult> rows;
  {
    RunJournal journal(path, std::string(32, 'c'), 3, /*fresh=*/true);
    for (std::uint64_t i = 0; i < 3; ++i) {
      ScenarioResult row = fake_row(ScenarioSpec{}, i);
      row.links.resize(2 + i);
      for (std::size_t k = 0; k < row.links.size(); ++k) {
        row.links[k].link_id = static_cast<std::int32_t>(k);
        row.links[k].transitions = 1000 * i + k;
        row.links[k].energy_pj = 0.25 * static_cast<double>(k + i);
      }
      journal.append(std::string(32, static_cast<char>('a' + i)), i, row);
      rows.push_back(row);
    }
  }
  const std::string clean = read_file(path);
  // [begin, end) of each record's text, its newline excluded.
  std::vector<std::size_t> begin;
  std::vector<std::size_t> end;
  for (std::size_t at = clean.find('\n') + 1; at < clean.size();
       at = end.back() + 1) {
    begin.push_back(at);
    end.push_back(clean.find('\n', at));
  }
  ASSERT_EQ(begin.size(), 3u);

  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    std::string bytes = clean;
    bool flipped[3] = {};
    for (std::size_t i = 0; i < 3; ++i) {
      if (rng() % 2 == 0) continue;
      const std::size_t at = begin[i] + rng() % (end[i] - begin[i]);
      char flip = bytes[at];
      while (flip == bytes[at] || flip == '\n')
        flip = static_cast<char>(rng() % 256);
      bytes[at] = flip;
      flipped[i] = true;
    }
    const std::size_t cut =
        rng() % 2 == 0 ? bytes.size()
                       : begin[0] + rng() % (bytes.size() - begin[0] + 1);
    bytes.resize(cut);
    write_file(path, bytes);

    const JournalContents contents = read_journal(path);
    ASSERT_TRUE(contents.header_ok) << "seed " << seed;
    std::size_t intact = 0;
    std::vector<std::string> damaged;
    for (std::size_t i = 0; i < 3; ++i) {
      const bool whole = end[i] <= cut;
      const bool torn = begin[i] < cut && cut < end[i];
      const std::string hash(32, static_cast<char>('a' + i));
      if (whole && !flipped[i]) {
        ++intact;
        ASSERT_TRUE(contents.rows.count(hash)) << "seed " << seed;
        ScenarioResult got = contents.rows.at(hash);
        got.spec = rows[i].spec;
        EXPECT_TRUE(got == rows[i]) << "seed " << seed << " record " << i;
      } else if (torn || whole) {
        damaged.push_back("record " + std::to_string(i + 1) + ":");
      }
    }
    EXPECT_EQ(contents.rows.size(), intact) << "seed " << seed;
    ASSERT_EQ(contents.warnings.size(), damaged.size()) << "seed " << seed;
    for (std::size_t w = 0; w < damaged.size(); ++w)
      EXPECT_NE(contents.warnings[w].find(damaged[w]), std::string::npos)
          << "seed " << seed << ": " << contents.warnings[w];
  }
}

TEST(MergeCampaign, ReassemblesShardJournalsInGridOrder) {
  const CampaignSpec camp = tiny_campaign();
  const std::string hash = campaign_content_hash(camp);
  const auto scenarios = camp.expand();
  // Interleaved 2-way split, written in opposite orders to prove the merge
  // sorts by grid position, not journal order.
  const std::string p0 = testing::TempDir() + "nocbt_merge_s0.jnl";
  const std::string p1 = testing::TempDir() + "nocbt_merge_s1.jnl";
  {
    RunJournal s0(p0, hash, scenarios.size(), true);
    RunJournal s1(p1, hash, scenarios.size(), true);
    for (std::size_t i = scenarios.size(); i-- > 0;) {
      RunJournal& shard = (i % 2 == 0) ? s0 : s1;
      shard.append(scenario_content_key(scenarios[i], "").hash, i,
                   fake_row(scenarios[i], i));
    }
  }
  const CampaignResult merged = merge_campaign(camp, {p0, p1});
  ASSERT_EQ(merged.rows.size(), scenarios.size());
  EXPECT_EQ(merged.stats.journal_hits, scenarios.size());
  EXPECT_EQ(merged.stats.simulated, 0u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(merged.rows[i].spec.name, scenarios[i].name);
    EXPECT_TRUE(merged.rows[i] == fake_row(scenarios[i], i));
  }
}

TEST(MergeCampaign, RefusesForeignAndIncompleteJournals) {
  const CampaignSpec camp = tiny_campaign();
  const std::string hash = campaign_content_hash(camp);
  const auto scenarios = camp.expand();
  const std::string partial = testing::TempDir() + "nocbt_merge_partial.jnl";
  {
    RunJournal journal(partial, hash, scenarios.size(), true);
    journal.append(scenario_content_key(scenarios[0], "").hash, 0,
                   fake_row(scenarios[0], 0));
  }
  // Missing rows: the error names the absent scenarios.
  try {
    (void)merge_campaign(camp, {partial});
    FAIL() << "incomplete journal set must not merge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(scenarios[1].name),
              std::string::npos)
        << e.what();
  }
  // Foreign journal: written under a different spec hash.
  CampaignSpec other = camp;
  other.root_seed = 1234;
  try {
    (void)merge_campaign(other, {partial});
    FAIL() << "foreign journal must be refused";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(hash), std::string::npos) << what;
    EXPECT_NE(what.find(campaign_content_hash(other)), std::string::npos)
        << what;
  }
  // Nonexistent journal file.
  EXPECT_THROW(
      (void)merge_campaign(camp, {testing::TempDir() + "nocbt_merge_no.jnl"}),
      std::runtime_error);
}

}  // namespace
}  // namespace nocbt::sim
