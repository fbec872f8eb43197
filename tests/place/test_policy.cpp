// Tests for the placement-policy registry and the built-in PE orders.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "place/policy.h"

namespace nocbt::place {
namespace {

accel::NodeRoles roles_4x4mc2() {
  return accel::assign_roles(noc::MeshShape(4, 4), 2);
}

TEST(PolicyRegistry, BuiltinsAreRegisteredInOrder) {
  const auto all = policies().all();
  ASSERT_GE(all.size(), 3u);
  EXPECT_EQ(all[0]->name(), "rowmajor");
  EXPECT_EQ(all[1]->name(), "snake");
  EXPECT_EQ(all[2]->name(), "nearmc");
  for (const auto* p : all) {
    EXPECT_FALSE(p->description().empty()) << p->name();
    EXPECT_EQ(policies().find(p->name()), p);
    EXPECT_EQ(&policies().get(p->name()), p);
  }
}

TEST(PolicyRegistry, UnknownNameThrowsListingRegistered) {
  EXPECT_EQ(policies().find("zigzag"), nullptr);
  try {
    (void)policies().get("zigzag");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("placement policy"), std::string::npos);
    EXPECT_NE(what.find("rowmajor"), std::string::npos);
    EXPECT_NE(what.find("snake"), std::string::npos);
    EXPECT_NE(what.find("nearmc"), std::string::npos);
  }
}

TEST(PolicyRegistry, RejectsDuplicatesAndNull) {
  class Fake final : public PlacementPolicy {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "rowmajor";  // collides with the built-in
    }
    [[nodiscard]] std::string_view description() const noexcept override {
      return "dup";
    }
    [[nodiscard]] std::vector<std::int32_t> assign(
        const noc::MeshShape&, const accel::NodeRoles& roles, std::int32_t n,
        std::int64_t) const override {
      return std::vector<std::int32_t>(static_cast<std::size_t>(n),
                                       roles.pes.front());
    }
  };
  EXPECT_THROW(policies().add(nullptr), std::invalid_argument);
  EXPECT_THROW(policies().add(std::make_unique<Fake>()),
               std::invalid_argument);
  EXPECT_NE(policies().get("rowmajor").description(), "dup");
}

TEST(Policies, AssignReturnsOnlyPeNodesAndWrapsModularly) {
  const noc::MeshShape shape(4, 4);
  const accel::NodeRoles roles = roles_4x4mc2();
  const std::set<std::int32_t> pe_set(roles.pes.begin(), roles.pes.end());
  for (const auto* policy : policies().all()) {
    const auto n_pes = static_cast<std::int32_t>(roles.pes.size());
    const auto tiles = policy->assign(shape, roles, n_pes + 3, 0);
    ASSERT_EQ(tiles.size(), static_cast<std::size_t>(n_pes) + 3)
        << policy->name();
    for (const auto pe : tiles)
      EXPECT_TRUE(pe_set.count(pe)) << policy->name() << " emitted " << pe;
    // Wrap-around: tile i and tile i + |PEs| share a PE ...
    for (std::int32_t i = 0; i + n_pes < static_cast<std::int32_t>(tiles.size());
         ++i)
      EXPECT_EQ(tiles[static_cast<std::size_t>(i)],
                tiles[static_cast<std::size_t>(i + n_pes)])
          << policy->name();
    // ... and an offset continues the same cycle where the last op stopped.
    const auto offset = policy->assign(shape, roles, 2, 5);
    EXPECT_EQ(offset[0], tiles[5]) << policy->name();
    EXPECT_EQ(offset[1], tiles[6]) << policy->name();
    // One full cycle covers every PE exactly once.
    const std::set<std::int32_t> covered(tiles.begin(),
                                         tiles.begin() + n_pes);
    EXPECT_EQ(covered, pe_set) << policy->name();
  }
}

TEST(Policies, RowMajorFollowsNodeIdOrder) {
  const accel::NodeRoles roles = roles_4x4mc2();
  const auto tiles = policies().get("rowmajor")
                         .assign(noc::MeshShape(4, 4), roles,
                                 static_cast<std::int32_t>(roles.pes.size()),
                                 0);
  EXPECT_EQ(tiles, roles.pes);
}

TEST(Policies, SnakeReversesOddRows) {
  // 4x4 with MCs at nodes 8 and 11: row 0 runs west->east (0,1,2,3), row 1
  // east->west (7,6,5,4), row 2 keeps only the PE nodes 9 and 10, row 3
  // east->west again (15,14,13,12).
  const accel::NodeRoles roles = roles_4x4mc2();
  ASSERT_EQ(roles.mcs, (std::vector<std::int32_t>{8, 11}));
  const auto tiles = policies().get("snake").assign(
      noc::MeshShape(4, 4), roles,
      static_cast<std::int32_t>(roles.pes.size()), 0);
  EXPECT_EQ(tiles, (std::vector<std::int32_t>{0, 1, 2, 3, 7, 6, 5, 4, 9, 10,
                                              15, 14, 13, 12}));
}

TEST(Policies, NearMcFrontLoadsPesNextToControllers) {
  const noc::MeshShape shape(4, 4);
  const accel::NodeRoles roles = roles_4x4mc2();
  const auto tiles = policies().get("nearmc").assign(
      shape, roles, static_cast<std::int32_t>(roles.pes.size()), 0);
  const auto nearest = nearest_mc_index(shape, roles);
  const auto dist_to_mc = [&](std::int32_t pe) {
    return shape.manhattan(pe,
                           roles.mcs[nearest[static_cast<std::size_t>(pe)]]);
  };
  for (std::size_t i = 1; i < tiles.size(); ++i)
    EXPECT_LE(dist_to_mc(tiles[i - 1]), dist_to_mc(tiles[i]))
        << "nearmc order must be non-decreasing in MC distance";
}

TEST(Policies, RejectBadTileCounts) {
  const accel::NodeRoles roles = roles_4x4mc2();
  EXPECT_THROW((void)policies().get("rowmajor")
                   .assign(noc::MeshShape(4, 4), roles, 0, 0),
               std::invalid_argument);
  accel::NodeRoles no_pes;
  no_pes.mcs = roles.mcs;
  EXPECT_THROW((void)policies().get("rowmajor")
                   .assign(noc::MeshShape(4, 4), no_pes, 1, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::place
