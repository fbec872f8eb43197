#include "noc/bt_recorder.h"

namespace nocbt::noc {

std::vector<LinkInfo> mesh_links(const MeshShape& shape) {
  const std::int32_t n = shape.node_count();
  std::vector<LinkInfo> links;
  for (std::int32_t node = 0; node < n; ++node) {
    for (Port port : {kEast, kWest, kNorth, kSouth}) {
      const std::int32_t nbr = shape.neighbor(node, port);
      if (nbr >= 0)
        links.push_back(LinkInfo{LinkKind::kInterRouter, node, nbr, port});
    }
  }
  for (std::int32_t node = 0; node < n; ++node) {
    links.push_back(LinkInfo{LinkKind::kInjection, node, node, -1});
    links.push_back(LinkInfo{LinkKind::kEjection, node, node, kLocal});
  }
  return links;
}

std::int32_t BtRecorder::register_link(const LinkInfo& info) {
  const auto id = static_cast<std::int32_t>(links_.size());
  links_.push_back(info);
  accs_.push_back(LinkAccumulator{BitVec(payload_bits_)});
  return id;
}

void BtRecorder::observe(std::int32_t link_id, const BitVec& payload) {
  const auto idx = static_cast<std::size_t>(link_id);
  LinkAccumulator& acc = accs_[idx];
  const auto bt = static_cast<std::uint64_t>(acc.wire.transitions_to(payload));
  acc.wire = payload;
  acc.transitions += bt;
  ++acc.flits;
  kind_bt_[static_cast<std::size_t>(links_[idx].kind)] += bt;
}

void BtRecorder::add(std::int32_t link_id, std::uint64_t flits,
                     std::uint64_t transitions) {
  const auto idx = static_cast<std::size_t>(link_id);
  accs_[idx].flits += flits;
  accs_[idx].transitions += transitions;
  kind_bt_[static_cast<std::size_t>(links_[idx].kind)] += transitions;
}

std::uint64_t BtRecorder::total() const noexcept {
  return by_kind(LinkKind::kInterRouter) + by_kind(LinkKind::kEjection);
}

std::uint64_t BtRecorder::total_all_links() const noexcept {
  return kind_bt_[0] + kind_bt_[1] + kind_bt_[2];
}

std::vector<LinkObservation> BtRecorder::snapshot() const {
  std::vector<LinkObservation> out;
  out.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i)
    out.push_back(LinkObservation{static_cast<std::int32_t>(i), links_[i],
                                  accs_[i].flits, accs_[i].transitions});
  return out;
}

std::string to_string(LinkKind kind) {
  switch (kind) {
    case LinkKind::kInjection: return "injection";
    case LinkKind::kInterRouter: return "inter-router";
    case LinkKind::kEjection: return "ejection";
  }
  return "?";
}

}  // namespace nocbt::noc
