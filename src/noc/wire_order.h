#pragma once
// Wire order: which flits each link carried, in the order it carried them.
//
// Transmission ordering only permutes values inside a packet. Half-half
// packing fixes every packet's flit count, and no router reads payload
// bits, so every payload variant of one injection schedule crosses each
// link in the same (packet, flit) sequence — virtual-channel interleaving
// included. A run's per-link bit transitions are therefore a function of
// that sequence and the payloads alone. A timing run records the sequence
// once (Network::record_wire_order; AnalyticalEngine::wire_order rebuilds
// it from the crossings it sorted); score_wire_order then charges any
// payload variant over it with LinkAccumulator's XOR/latch rule, without
// simulating again.
//
// Flits are named by flat index: packets are numbered in injection order,
// and flit f of packet p is packet_begin[p] + f. Each link's indices are
// stored delta-coded (see WireOrder::bytes): a packet's flits crossing
// back to back cost one byte each, and interleaved packets a byte or two.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "noc/bt_recorder.h"
#include "noc/noc_config.h"

namespace nocbt::noc {

/// Every link's recorded flit sequence, in link-id order.
struct WireOrder {
  std::vector<LinkInfo> links;  ///< the timing run's links, in link-id order
  /// packets() + 1 entries: flat index of each packet's first flit, then
  /// the total flit count.
  std::vector<std::uint32_t> packet_begin{0};
  /// links.size() + 1 entries: link l's sequence is bytes[link_begin[l],
  /// link_begin[l + 1]).
  std::vector<std::size_t> link_begin{0};
  /// Each crossing stores zigzag(index - previous index - 1) as a base-128
  /// varint (low 7 bits first, high bit = more bytes follow), the previous
  /// index starting at -1 on every link. A zero byte is the next flit of
  /// the same stream. About 1.3 bytes per crossing on placed ResNet
  /// traffic, where most crossings interleave; at most 5.
  std::vector<std::uint8_t> bytes;
  BtScopeConfig scope;        ///< which link classes total() counts
  unsigned payload_bits = 0;  ///< flit width of the timing run

  [[nodiscard]] std::size_t packets() const noexcept {
    return packet_begin.size() - 1;
  }
  [[nodiscard]] std::size_t flits() const noexcept {
    return packet_begin.back();
  }
};

/// Collects a WireOrder while an engine runs. Packets are announced in
/// injection order; crossings are pushed per link in wire order.
class WireOrderRecorder {
 public:
  explicit WireOrderRecorder(std::size_t links) : links_(links) {}

  /// Announce the next packet (ids count up from 0). Throws
  /// std::length_error once the schedule outgrows 32-bit flit indices.
  void add_packet(std::size_t flits);

  /// Link `link` carried flit `flit` of packet `packet`.
  void push(std::int32_t link, std::uint64_t packet, std::uint32_t flit);

  /// The recorded order, compacted to one byte array, over `bt`'s link
  /// table with `cfg`'s scope and flit width.
  [[nodiscard]] WireOrder finish(const BtRecorder& bt, const NocConfig& cfg);

 private:
  struct Link {
    std::vector<std::uint8_t> bytes;
    std::int64_t last = -1;  ///< flat index of the flit pushed last
  };
  std::vector<std::uint32_t> packet_begin_{0};
  std::vector<Link> links_;
};

/// One payload variant in the flat layout a WireOrder indexes: flit i is
/// words[i * words_per_flit, (i + 1) * words_per_flit), and packet p owns
/// flits [packet_begin[p], packet_begin[p + 1]).
struct FlatPayloads {
  std::size_t words_per_flit = 0;
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> packet_begin{0};
};

/// The BT recorder `payloads` would leave behind had they run through the
/// network that recorded `order`: every link starts from the all-zero wire
/// state and charges popcount(previous flit XOR flit) per recorded
/// crossing. When links mostly carry flits back to back, each flit's
/// transition against its flat predecessor is priced once per variant and
/// such a crossing costs one lookup. Throws std::logic_error, naming the
/// first packet whose flit count differs from the timing run's, when the
/// payloads do not fit the recorded order, and std::invalid_argument on a
/// flit width mismatch or a malformed order.
[[nodiscard]] BtRecorder score_wire_order(const WireOrder& order,
                                          const FlatPayloads& payloads);

}  // namespace nocbt::noc
