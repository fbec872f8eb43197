#include "noc/trace.h"

#include <fstream>
#include <stdexcept>
#include <string_view>

#include "common/csv.h"
#include "common/field_reader.h"

namespace nocbt::noc {

namespace {

/// Payload cell: each 32-bit word as exactly 8 lowercase hex digits,
/// concatenated (empty cell = no payload).
std::string format_payload(const std::vector<std::uint32_t>& words) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string cell;
  cell.reserve(words.size() * 8);
  for (const std::uint32_t w : words)
    for (int shift = 28; shift >= 0; shift -= 4)
      cell.push_back(kHex[(w >> shift) & 0xF]);
  return cell;
}

std::vector<std::uint32_t> parse_payload(std::string_view cell) {
  if (cell.size() % 8 != 0)
    throw std::invalid_argument(
        "payload of " + std::to_string(cell.size()) +
        " hex digits is not a whole number of 32-bit words (each word is "
        "exactly 8 lowercase hex digits)");
  std::vector<std::uint32_t> words;
  words.reserve(cell.size() / 8);
  for (std::size_t i = 0; i < cell.size(); i += 8) {
    std::uint32_t w = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      const char c = cell[i + j];
      std::uint32_t nibble = 0;
      if (c >= '0' && c <= '9')
        nibble = static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        nibble = static_cast<std::uint32_t>(c - 'a' + 10);
      else
        throw std::invalid_argument(std::string("bad hex digit '") + c +
                                    "' in payload");
      w = (w << 4) | nibble;
    }
    words.push_back(w);
  }
  return words;
}

/// A count or cycle cell, which must be unsigned.
template <typename T>
T parse_count(std::string_view cell) {
  return parse_field_or_throw<T>(cell, "a non-negative integer");
}

}  // namespace

std::size_t PacketTrace::dump_csv(const std::string& path) const {
  bool any_payload = false;
  for (const auto& e : events_)
    if (e.has_payload()) {
      any_payload = true;
      break;
    }

  std::vector<std::string> headers = {"packet_id",    "src",
                                      "dst",          "num_flits",
                                      "inject_cycle", "eject_cycle",
                                      "latency",      "hops"};
  if (any_payload) {
    headers.push_back("weights");
    headers.push_back("inputs");
  }
  CsvWriter csv(path, headers);
  for (const auto& e : events_) {
    std::vector<std::string> row = {
        std::to_string(e.packet_id), std::to_string(e.src),
        std::to_string(e.dst),       std::to_string(e.num_flits),
        std::to_string(e.inject_cycle), std::to_string(e.eject_cycle),
        std::to_string(e.eject_cycle - e.inject_cycle),
        std::to_string(e.hops)};
    if (any_payload) {
      row.push_back(format_payload(e.weights));
      row.push_back(format_payload(e.inputs));
    }
    csv.add_row(row);
  }
  return csv.rows_written();
}

PacketTrace PacketTrace::load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("PacketTrace::load_csv: cannot open " + path);

  const std::string legacy_header =
      "packet_id,src,dst,num_flits,inject_cycle,eject_cycle,latency,hops";
  const std::string payload_header = legacy_header + ",weights,inputs";
  // Tolerate CRLF line endings so a trace recorded on one platform can be
  // replayed on another.
  const auto strip_cr = [](std::string& s) {
    if (!s.empty() && s.back() == '\r') s.pop_back();
  };
  std::string line;
  if (!std::getline(in, line)) line.clear();
  strip_cr(line);
  bool with_payload = false;
  if (line == payload_header)
    with_payload = true;
  else if (line != legacy_header)
    throw std::runtime_error("PacketTrace::load_csv: bad header in " + path);
  const std::size_t expected_cells = with_payload ? 10 : 8;

  PacketTrace trace;
  std::size_t row = 1;
  while (std::getline(in, line)) {
    ++row;
    strip_cr(line);
    if (line.empty()) continue;
    FieldReader cells(line);
    if (cells.remaining() != expected_cells)
      throw std::runtime_error("PacketTrace::load_csv: row " +
                               std::to_string(row) + " has " +
                               std::to_string(cells.remaining()) + " cells");
    try {
      TraceEvent e;
      e.packet_id = parse_count<std::uint64_t>(cells.next());
      e.src = parse_field_or_throw<std::int32_t>(cells.next(), "an integer");
      e.dst = parse_field_or_throw<std::int32_t>(cells.next(), "an integer");
      e.num_flits = parse_count<std::uint32_t>(cells.next());
      e.inject_cycle = parse_count<std::uint64_t>(cells.next());
      e.eject_cycle = parse_count<std::uint64_t>(cells.next());
      // The latency column is derived on dump; require ordered timestamps
      // and an agreeing value so a hand-edited trace cannot carry
      // contradictory timing.
      if (e.eject_cycle < e.inject_cycle)
        throw std::invalid_argument("eject_cycle precedes inject_cycle");
      if (parse_count<std::uint64_t>(cells.next()) !=
          e.eject_cycle - e.inject_cycle)
        throw std::invalid_argument("latency != eject_cycle - inject_cycle");
      e.hops = parse_count<std::uint16_t>(cells.next());
      if (with_payload) {
        e.weights = parse_payload(cells.next());
        e.inputs = parse_payload(cells.next());
        // Half-half flitization zips the streams pairwise, so a payload-
        // carrying row must hold matched streams.
        if (e.weights.size() != e.inputs.size())
          throw std::invalid_argument(
              "weights payload holds " + std::to_string(e.weights.size()) +
              " words but inputs holds " + std::to_string(e.inputs.size()) +
              " (half-half flitization needs matched streams)");
      }
      trace.record(e);
    } catch (const std::exception& e) {
      throw std::runtime_error("PacketTrace::load_csv: malformed row " +
                               std::to_string(row) + " in " + path + ": " +
                               e.what());
    }
  }
  return trace;
}

}  // namespace nocbt::noc
