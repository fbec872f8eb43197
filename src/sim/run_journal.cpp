#include "sim/run_journal.h"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/field_reader.h"
#include "sim/scenario_cache.h"

namespace nocbt::sim {

namespace {

constexpr std::string_view kJournalMagic = "nocbt-journal v1 ";

std::string header_line(const std::string& campaign_hash,
                        std::uint64_t total) {
  return std::string(kJournalMagic) + "campaign=" + campaign_hash +
         " total=" + std::to_string(total);
}

/// Parse "nocbt-journal v1 campaign=<32hex> total=<N>".
bool parse_header(std::string_view line, std::string& hash,
                  std::uint64_t& total) {
  constexpr std::string_view kCampaign = "campaign=";
  constexpr std::string_view kTotal = "total=";
  if (!line.starts_with(kJournalMagic)) return false;
  FieldReader in(line.substr(kJournalMagic.size()), ' ');
  const std::string_view campaign = in.next();
  const std::string_view count = in.next();
  if (in.remaining() != 0 || !campaign.starts_with(kCampaign) ||
      campaign.size() != kCampaign.size() + 32 || !count.starts_with(kTotal))
    return false;
  hash = campaign.substr(kCampaign.size());
  return parse_field(count.substr(kTotal.size()), total) == std::errc{};
}

}  // namespace

JournalContents read_journal(const std::string& path) {
  JournalContents out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  out.exists = true;
  std::string line;
  if (!std::getline(in, line) || !parse_header(line, out.campaign_hash,
                                               out.total)) {
    out.warnings.push_back("journal " + path +
                           ": unrecognizable header line — ignoring the "
                           "whole file (it will be started fresh)");
    return out;
  }
  out.header_ok = true;
  std::uint64_t record = 0;  // 1-based count of lines after the header
  while (std::getline(in, line)) {
    ++record;
    if (line.empty()) continue;  // a torn append can leave a bare newline
    DecodedRecord decoded;
    std::string error;
    if (!decode_result_record(line, decoded, error)) {
      out.warnings.push_back("journal " + path + ": record " +
                             std::to_string(record) + ": " + error +
                             " — record skipped (its scenario will "
                             "re-run)");
      continue;
    }
    out.rows[decoded.content_hash] = decoded.row;
    out.indexes[decoded.content_hash] = decoded.index;
  }
  return out;
}

RunJournal::RunJournal(const std::string& path,
                       const std::string& campaign_hash, std::uint64_t total,
                       bool fresh)
    : path_(path) {
  // A torn append (kill mid-record) leaves a final line with no newline;
  // appending straight after it would garble the next record too. Resume
  // by completing that line first — the fragment stays diagnosable as one
  // corrupt record and every later append starts clean.
  bool needs_newline = false;
  if (!fresh) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in && in.tellg() > 0) {
      in.seekg(-1, std::ios::end);
      needs_newline = in.get() != '\n';
    }
  }
  out_.open(path, std::ios::binary | (fresh ? std::ios::trunc
                                            : std::ios::app));
  if (!out_)
    throw std::runtime_error("RunJournal: cannot open journal '" + path +
                             "' for writing");
  if (needs_newline) out_ << '\n';
  if (fresh) {
    out_ << header_line(campaign_hash, total) << '\n';
    out_.flush();
    if (!out_)
      throw std::runtime_error("RunJournal: cannot write header to '" + path +
                               "'");
  }
}

void RunJournal::append(const std::string& content_hash, std::uint64_t index,
                        const ScenarioResult& row) {
  out_ << encode_result_record(content_hash, index, row) << '\n';
  out_.flush();
  if (!out_)
    throw std::runtime_error("RunJournal: append failed for '" + path_ + "'");
}

CampaignResult merge_campaign(const CampaignSpec& spec,
                              const std::vector<std::string>& journal_paths) {
  const std::string want_hash = campaign_content_hash(spec);
  CampaignResult result;

  std::unordered_map<std::string, ScenarioResult> rows;
  for (const std::string& path : journal_paths) {
    JournalContents j = read_journal(path);
    if (!j.exists)
      throw std::runtime_error("merge_campaign: journal '" + path +
                               "' does not exist or is unreadable");
    if (!j.header_ok)
      throw std::runtime_error("merge_campaign: journal '" + path +
                               "' has an unrecognizable header line");
    if (j.campaign_hash != want_hash)
      throw std::runtime_error(
          "merge_campaign: journal '" + path + "' was written for campaign " +
          j.campaign_hash + " but this spec hashes to " + want_hash +
          " — refusing to mix rows across differing campaign specs");
    for (auto& [hash, row] : j.rows) rows.insert({hash, std::move(row)});
    for (std::string& w : j.warnings)
      result.stats.warnings.push_back(std::move(w));
  }

  const std::vector<ScenarioSpec> scenarios = spec.expand();
  result.stats.grid_total = scenarios.size();
  result.stats.assigned = scenarios.size();
  result.rows.reserve(scenarios.size());
  std::vector<std::string> missing;
  for (const ScenarioSpec& s : scenarios) {
    const ContentKey key = scenario_content_key(s, spec.hooks.id);
    if (!key.cacheable)
      throw std::runtime_error("merge_campaign: scenario '" + s.name +
                               "' is not content-addressable (" + key.why_not +
                               "), so no journal can carry its row");
    const auto it = rows.find(key.hash);
    if (it == rows.end()) {
      missing.push_back(s.name);
      continue;
    }
    ScenarioResult row = it->second;
    row.spec = s;
    result.rows.push_back(std::move(row));
    ++result.stats.journal_hits;
  }
  if (!missing.empty()) {
    std::ostringstream msg;
    msg << "merge_campaign: " << missing.size() << " of " << scenarios.size()
        << " scenarios are missing from the " << journal_paths.size()
        << " journal(s):";
    const std::size_t shown = missing.size() < 8 ? missing.size() : 8;
    for (std::size_t i = 0; i < shown; ++i) msg << ' ' << missing[i];
    if (shown < missing.size())
      msg << " (+" << missing.size() - shown << " more)";
    throw std::runtime_error(msg.str());
  }
  return result;
}

}  // namespace nocbt::sim
