// Property suite over the whole placement registry x model zoo
// cross-product: every registered PlacementPolicy placing every zoo model
// must produce tilings that cover each op's output units exactly once,
// land every tile on an in-mesh PE node, bind every tile to a real memory
// controller, and reproduce the identical assignment on a re-run. New
// policies and new zoo models are covered automatically — the axes come
// from the registries, not from hand-kept lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/mapping.h"
#include "common/rng.h"
#include "dnn/zoo.h"
#include "noc/routing.h"
#include "place/placement.h"
#include "place/policy.h"

namespace nocbt::place {
namespace {

constexpr std::int32_t kRows = 8;
constexpr std::int32_t kCols = 8;
constexpr std::int32_t kMcs = 4;
constexpr std::int32_t kTilesPerLayer = 8;
constexpr std::uint64_t kModelSeed = 42;

Placement place_zoo_model(const std::string& model_name,
                          const std::string& policy_name) {
  Rng rng(kModelSeed);
  const dnn::Sequential model = dnn::build_zoo_model(model_name, rng);
  const noc::MeshShape mesh(kRows, kCols);
  const accel::NodeRoles roles = accel::assign_roles(mesh, kMcs);
  return place_model(model, dnn::zoo_model_spec(model_name).input, mesh,
                     roles, policies().get(policy_name), kTilesPerLayer);
}

TEST(PlacePropertySuite, RegistryEnumerationMatchesLookup) {
  const std::vector<std::string> names = registered_policy_names();
  ASSERT_FALSE(names.empty());
  // Every enumerated name resolves, and the built-ins are present.
  for (const std::string& name : names)
    EXPECT_EQ(policies().get(name).name(), name);
  for (const char* builtin : {"rowmajor", "snake", "nearmc"})
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end())
        << "built-in policy missing: " << builtin;
}

TEST(PlacePropertySuite, EveryPolicyTilesEveryZooModelExactly) {
  for (const std::string& policy : registered_policy_names()) {
    for (const std::string& model : dnn::zoo_model_names()) {
      SCOPED_TRACE("policy=" + policy + " model=" + model);
      const Placement placed = place_zoo_model(model, policy);
      ASSERT_FALSE(placed.ops.empty());

      std::int64_t tiles_seen = 0;
      for (const PlacedOp& op : placed.ops) {
        SCOPED_TRACE("op=" + op.name);
        ASSERT_FALSE(op.tiles.empty());
        ASSERT_GT(op.units, 0);
        EXPECT_LE(static_cast<std::int32_t>(op.tiles.size()),
                  std::min(kTilesPerLayer, op.units));

        // Unit coverage: tiles are contiguous, non-empty, non-overlapping
        // ranges that jointly cover [0, units) exactly once.
        EXPECT_EQ(op.tiles.front().unit_begin, 0);
        for (std::size_t t = 0; t < op.tiles.size(); ++t) {
          const TileAssignment& tile = op.tiles[t];
          EXPECT_GE(tile.units(), 1);
          if (t > 0) EXPECT_EQ(tile.unit_begin, op.tiles[t - 1].unit_end);
          // PE is a real compute node of this mesh: in range and not a MC.
          EXPECT_GE(tile.pe, 0);
          EXPECT_LT(tile.pe, kRows * kCols);
          EXPECT_NE(std::find(placed.roles.pes.begin(),
                              placed.roles.pes.end(), tile.pe),
                    placed.roles.pes.end())
              << "tile PE " << tile.pe << " is not a PE node";
          EXPECT_LT(tile.mc, placed.roles.mcs.size());
        }
        EXPECT_EQ(op.tiles.back().unit_end, op.units);
        tiles_seen += static_cast<std::int64_t>(op.tiles.size());
      }
      EXPECT_EQ(placed.total_tiles, tiles_seen);
    }
  }
}

TEST(PlacePropertySuite, PlacementIsStableUnderRerun) {
  // Same model seed, same mesh, same policy -> bitwise-identical tile
  // assignment (PE and MC binding included). The campaign engine relies on
  // this: scenario results are reproducible only if placement is.
  for (const std::string& policy : registered_policy_names()) {
    for (const std::string& model : dnn::zoo_model_names()) {
      SCOPED_TRACE("policy=" + policy + " model=" + model);
      const Placement a = place_zoo_model(model, policy);
      const Placement b = place_zoo_model(model, policy);
      ASSERT_EQ(a.ops.size(), b.ops.size());
      for (std::size_t i = 0; i < a.ops.size(); ++i) {
        ASSERT_EQ(a.ops[i].tiles.size(), b.ops[i].tiles.size());
        for (std::size_t t = 0; t < a.ops[i].tiles.size(); ++t) {
          const TileAssignment& ta = a.ops[i].tiles[t];
          const TileAssignment& tb = b.ops[i].tiles[t];
          EXPECT_EQ(ta.unit_begin, tb.unit_begin);
          EXPECT_EQ(ta.unit_end, tb.unit_end);
          EXPECT_EQ(ta.pe, tb.pe);
          EXPECT_EQ(ta.mc, tb.mc);
        }
      }
    }
  }
}

TEST(PlacePropertySuite, ConsecutiveLayersAvoidPeReuseWhenMeshAllows) {
  // The wrap-around contract: while the running tile offset stays below
  // the PE count, consecutive ops occupy disjoint PEs.
  for (const std::string& policy : registered_policy_names()) {
    const Placement placed = place_zoo_model("lenet", policy);
    const std::size_t pe_count = placed.roles.pes.size();
    std::int64_t offset = 0;
    for (std::size_t i = 0; i + 1 < placed.ops.size(); ++i) {
      offset += static_cast<std::int64_t>(placed.ops[i].tiles.size());
      const std::int64_t next =
          offset + static_cast<std::int64_t>(placed.ops[i + 1].tiles.size());
      if (next > static_cast<std::int64_t>(pe_count)) break;
      for (const TileAssignment& ta : placed.ops[i].tiles)
        for (const TileAssignment& tb : placed.ops[i + 1].tiles)
          EXPECT_NE(ta.pe, tb.pe)
              << "policy " << policy << ": ops " << i << " and " << i + 1
              << " share PE " << ta.pe;
    }
  }
}

}  // namespace
}  // namespace nocbt::place
