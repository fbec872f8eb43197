#include "noc/wire_order.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "common/bitops.h"

namespace nocbt::noc {
namespace {

/// Append `index` to a link's sequence whose previous index is `last`.
void encode(std::vector<std::uint8_t>& out, std::int64_t last,
            std::uint32_t index) {
  const std::int64_t delta = static_cast<std::int64_t>(index) - last - 1;
  auto z = (static_cast<std::uint64_t>(delta) << 1) ^
           static_cast<std::uint64_t>(delta >> 63);  // zigzag
  for (; z >= 0x80; z >>= 7)
    out.push_back(static_cast<std::uint8_t>(z | 0x80));
  out.push_back(static_cast<std::uint8_t>(z));
}

/// Reads one link's sequence back; next() names the link and throws
/// std::invalid_argument rather than run past its bytes or its flits.
class Decoder {
 public:
  Decoder(const WireOrder& order, std::size_t link)
      : flits_(order.flits()), link_(link) {
    if (link + 1 >= order.link_begin.size() ||
        order.link_begin[link] > order.link_begin[link + 1] ||
        order.link_begin[link + 1] > order.bytes.size())
      fail();
    at_ = order.bytes.data() + order.link_begin[link];
    end_ = order.bytes.data() + order.link_begin[link + 1];
  }

  [[nodiscard]] bool done() const noexcept { return at_ == end_; }

  /// The next flat index; `consecutive` is set when it directly follows
  /// the previous one.
  std::uint32_t next(bool& consecutive) {
    // A valid delta lies within +-2^32, so its zigzag fits 34 bits and 5
    // bytes; bounding it also keeps the index arithmetic from overflowing.
    std::uint64_t z = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (at_ == end_ || shift > 28) fail();
      const std::uint8_t byte = *at_++;
      z |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) break;
    }
    if (z >> 34) fail();
    consecutive = z == 0;
    const auto delta = static_cast<std::int64_t>(z >> 1) ^
                       -static_cast<std::int64_t>(z & 1);  // unzigzag
    const std::int64_t index = last_ + 1 + delta;
    if (index < 0 || static_cast<std::uint64_t>(index) >= flits_) fail();
    last_ = index;
    return static_cast<std::uint32_t>(index);
  }

 private:
  [[noreturn]] void fail() const {
    throw std::invalid_argument("wire order: link " + std::to_string(link_) +
                                " is malformed or names a flit beyond the " +
                                std::to_string(flits_) + " recorded");
  }

  std::uint64_t flits_;
  std::size_t link_;
  const std::uint8_t* at_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::int64_t last_ = -1;
};

}  // namespace

void WireOrderRecorder::add_packet(std::size_t flits) {
  const std::uint64_t end = std::uint64_t{packet_begin_.back()} + flits;
  if (end > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error(
        "WireOrderRecorder: schedule exceeds 2^32 - 1 flits");
  packet_begin_.push_back(static_cast<std::uint32_t>(end));
}

void WireOrderRecorder::push(std::int32_t link, std::uint64_t packet,
                             std::uint32_t flit) {
  Link& l = links_[static_cast<std::size_t>(link)];
  const std::uint32_t index =
      packet_begin_[static_cast<std::size_t>(packet)] + flit;
  encode(l.bytes, l.last, index);
  l.last = index;
}

WireOrder WireOrderRecorder::finish(const BtRecorder& bt,
                                    const NocConfig& cfg) {
  WireOrder order;
  order.scope = cfg.bt_scope;
  order.payload_bits = cfg.flit_payload_bits;
  order.packet_begin = std::move(packet_begin_);
  std::size_t total = 0;
  for (const Link& l : links_) total += l.bytes.size();
  order.bytes.reserve(total);
  order.links.reserve(links_.size());
  order.link_begin.reserve(links_.size() + 1);
  for (std::size_t l = 0; l < links_.size(); ++l) {
    order.links.push_back(bt.link_info(static_cast<std::int32_t>(l)));
    order.bytes.insert(order.bytes.end(), links_[l].bytes.begin(),
                       links_[l].bytes.end());
    order.link_begin.push_back(order.bytes.size());
  }
  links_.clear();
  return order;
}

BtRecorder score_wire_order(const WireOrder& order,
                            const FlatPayloads& payloads) {
  const std::size_t wpf = (order.payload_bits + 63) / 64;
  if (payloads.words_per_flit != wpf)
    throw std::invalid_argument(
        "score_wire_order: payloads hold " +
        std::to_string(payloads.words_per_flit) +
        " words per flit, the timing run's " +
        std::to_string(order.payload_bits) + "-bit links need " +
        std::to_string(wpf));
  // The premise of replaying: every packet has the flit count it had in
  // the timing run. The first differing prefix entry names the packet.
  const std::vector<std::uint32_t>& want = order.packet_begin;
  const std::vector<std::uint32_t>& got = payloads.packet_begin;
  const auto differ =
      std::mismatch(want.begin(), want.end(), got.begin(), got.end());
  if (differ.first != want.end() || differ.second != got.end()) {
    const auto at = static_cast<std::size_t>(differ.first - want.begin());
    const std::size_t p = at > 0 ? at - 1 : 0;
    const auto count = [p](const std::vector<std::uint32_t>& begin) {
      return p + 1 < begin.size()
                 ? std::to_string(begin[p + 1] - begin[p]) + " flits"
                 : std::string("no flits");
    };
    throw std::logic_error("score_wire_order: packet " + std::to_string(p) +
                           " has " + count(got) +
                           " in this payload variant but " + count(want) +
                           " in the timing run");
  }
  const std::size_t flits = order.flits();
  if (payloads.words.size() != flits * wpf)
    throw std::invalid_argument("score_wire_order: payloads hold " +
                                std::to_string(payloads.words.size()) +
                                " words for " + std::to_string(flits) +
                                " flits");
  if (order.link_begin.size() != order.links.size() + 1)
    throw std::invalid_argument(
        "score_wire_order: link offsets do not match the link table");

  const auto flit = [&payloads, wpf](std::size_t i) {
    return std::span<const std::uint64_t>(payloads.words.data() + i * wpf,
                                          wpf);
  };
  // adjacent[i]: transitions from flat flit i - 1 to flit i. A crossing
  // that follows its flat predecessor on a link (a packet's flits back to
  // back, or one packet's tail straight into the next packet's head; one
  // zero byte each) then costs one lookup. The table prices every flit up
  // front, so it is built only when such crossings are at least twice the
  // flits: 4.9 and 6.9 times on the benchmark's contended and zero-load
  // sweeps, where it made the replay 1.8x and 3.1x faster, but about once
  // on placed ResNet, where it made it 5-10% slower.
  const auto follows = static_cast<std::size_t>(
      std::count(order.bytes.begin(), order.bytes.end(), std::uint8_t{0}));
  std::vector<std::uint32_t> adjacent;
  if (follows >= 2 * flits) {
    adjacent.resize(flits, 0);
    for (std::size_t i = 1; i < flits; ++i)
      adjacent[i] =
          static_cast<std::uint32_t>(transitions(flit(i - 1), flit(i)));
  }

  BtRecorder bt(order.scope, order.payload_bits);
  for (std::size_t l = 0; l < order.links.size(); ++l) {
    const std::int32_t link = bt.register_link(order.links[l]);
    Decoder decoder(order, l);
    if (decoder.done()) continue;
    // LinkAccumulator::observe per crossing: charge popcount(wire XOR
    // flit), latch the flit. The wire starts all-zero.
    LinkAccumulator acc(order.payload_bits);
    bool consecutive = false;
    std::uint32_t prev = decoder.next(consecutive);
    for (const std::uint64_t word : flit(prev))
      acc.transitions += static_cast<std::uint64_t>(popcount64(word));
    acc.flits = 1;
    while (!decoder.done()) {
      const std::uint32_t index = decoder.next(consecutive);
      acc.transitions += consecutive && !adjacent.empty()
                             ? adjacent[index]
                             : static_cast<std::uint64_t>(
                                   transitions(flit(prev), flit(index)));
      ++acc.flits;
      prev = index;
    }
    const std::span<const std::uint64_t> last = flit(prev);
    for (std::size_t k = 0; k < wpf; ++k)
      acc.prev.set_field(
          static_cast<unsigned>(64 * k),
          static_cast<unsigned>(
              std::min<std::size_t>(64, order.payload_bits - 64 * k)),
          last[k]);
    bt.absorb(link, acc);
  }
  return bt;
}

}  // namespace nocbt::noc
