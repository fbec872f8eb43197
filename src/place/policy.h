#pragma once
// Pluggable placement policies: in which order the mesh's PE tiles are
// handed out to layer tiles. Like an OrderingStrategy, a policy is a
// registered, stateless, thread-safe pure function, and new policies
// become sweepable from the campaign runner by name.
//
// Built-ins:
//   rowmajor  PEs in node-id order (row-major across the mesh)
//   snake     serpentine rows (even rows west->east, odd rows east->west),
//             keeping consecutive tiles physically adjacent
//   nearmc    PEs sorted by distance to their nearest memory controller,
//             so early tiles sit next to the MCs that feed them
//
// All built-ins wrap around: tile i lands on the policy's PE order at
// index (tile_offset + i) mod |PEs|, so a deep model reuses tiles while
// consecutive layers stay on disjoint PEs when the mesh is large enough.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "accel/mapping.h"
#include "common/registry.h"
#include "noc/routing.h"

namespace nocbt::place {

/// One placement policy. Implementations must be stateless and
/// thread-safe: assign() is called concurrently from campaign worker
/// threads and must be a deterministic pure function of its arguments.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// PE nodes for `n_tiles` consecutive tiles of one op, given that
  /// `tile_offset` tiles of the same model were placed before them.
  /// Every returned node is one of roles.pes.
  [[nodiscard]] virtual std::vector<std::int32_t> assign(
      const noc::MeshShape& shape, const accel::NodeRoles& roles,
      std::int32_t n_tiles, std::int64_t tile_offset) const = 0;
};

/// The placement-policy registry: the built-ins above, in that order,
/// then anything add()ed.
[[nodiscard]] Registry<PlacementPolicy>& policies();

/// policies().names(): the enumeration hook the co-optimizer and sweep
/// front-ends build their placement axis from.
[[nodiscard]] std::vector<std::string> registered_policy_names();

}  // namespace nocbt::place
