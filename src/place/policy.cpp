#include "place/policy.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace nocbt::place {

namespace {

/// Shared wrap-around indexing over a policy-specific PE order.
std::vector<std::int32_t> take_modular(const std::vector<std::int32_t>& order,
                                       std::int32_t n_tiles,
                                       std::int64_t tile_offset) {
  if (order.empty())
    throw std::invalid_argument("PlacementPolicy: mesh has no PE nodes");
  if (n_tiles < 1)
    throw std::invalid_argument("PlacementPolicy: n_tiles must be >= 1");
  std::vector<std::int32_t> pes;
  pes.reserve(static_cast<std::size_t>(n_tiles));
  for (std::int32_t i = 0; i < n_tiles; ++i)
    pes.push_back(order[static_cast<std::size_t>(
        (tile_offset + i) % static_cast<std::int64_t>(order.size()))]);
  return pes;
}

class RowMajorPolicy final : public PlacementPolicy {
 public:
  std::string_view name() const noexcept override { return "rowmajor"; }
  std::string_view description() const noexcept override {
    return "PEs in node-id order (row-major across the mesh)";
  }
  std::vector<std::int32_t> assign(const noc::MeshShape&,
                                   const accel::NodeRoles& roles,
                                   std::int32_t n_tiles,
                                   std::int64_t tile_offset) const override {
    return take_modular(roles.pes, n_tiles, tile_offset);
  }
};

class SnakePolicy final : public PlacementPolicy {
 public:
  std::string_view name() const noexcept override { return "snake"; }
  std::string_view description() const noexcept override {
    return "serpentine rows: even rows west->east, odd rows east->west";
  }
  std::vector<std::int32_t> assign(const noc::MeshShape& shape,
                                   const accel::NodeRoles& roles,
                                   std::int32_t n_tiles,
                                   std::int64_t tile_offset) const override {
    std::vector<std::int32_t> order;
    order.reserve(roles.pes.size());
    for (std::int32_t y = 0; y < shape.rows(); ++y) {
      for (std::int32_t i = 0; i < shape.cols(); ++i) {
        const std::int32_t x = (y % 2 == 0) ? i : shape.cols() - 1 - i;
        const std::int32_t node = shape.node_at(noc::Coord{x, y});
        if (std::binary_search(roles.mcs.begin(), roles.mcs.end(), node))
          continue;
        order.push_back(node);
      }
    }
    return take_modular(order, n_tiles, tile_offset);
  }
};

class NearMcPolicy final : public PlacementPolicy {
 public:
  std::string_view name() const noexcept override { return "nearmc"; }
  std::string_view description() const noexcept override {
    return "PEs sorted by distance to their nearest MC (ties to node id)";
  }
  std::vector<std::int32_t> assign(const noc::MeshShape& shape,
                                   const accel::NodeRoles& roles,
                                   std::int32_t n_tiles,
                                   std::int64_t tile_offset) const override {
    std::vector<std::int32_t> order = roles.pes;
    const std::vector<std::size_t> nearest =
        accel::nearest_mc_index(shape, roles);
    auto dist_to_mc = [&](std::int32_t pe) {
      return shape.manhattan(pe, roles.mcs[nearest[static_cast<std::size_t>(pe)]]);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return dist_to_mc(a) < dist_to_mc(b);
                     });
    return take_modular(order, n_tiles, tile_offset);
  }
};

}  // namespace

Registry<PlacementPolicy>& policies() {
  static Registry<PlacementPolicy> registry(
      "placement policy", std::make_unique<RowMajorPolicy>(),
      std::make_unique<SnakePolicy>(), std::make_unique<NearMcPolicy>());
  return registry;
}

std::vector<std::string> registered_policy_names() {
  return policies().names();
}

}  // namespace nocbt::place
