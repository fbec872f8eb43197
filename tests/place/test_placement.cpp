// Tests for place_model: unit tiling, policy-driven PE choice, nearest-MC
// binding, fusion of non-weighted layers, residual flattening with skip
// edges, and the error surface.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "dnn/activation.h"
#include "dnn/conv2d.h"
#include "dnn/linear.h"
#include "dnn/pooling.h"
#include "dnn/residual.h"
#include "place/placement.h"

namespace nocbt::place {
namespace {

using dnn::Conv2d;
using dnn::Linear;
using dnn::MaxPool2d;
using dnn::Relu;
using dnn::Residual;
using dnn::Sequential;
using dnn::Shape;

struct Mesh4x4 {
  noc::MeshShape shape{4, 4};
  accel::NodeRoles roles = accel::assign_roles(shape, 2);
};

Placement place(const Sequential& model, Shape input, std::int32_t tiles,
                const Mesh4x4& m = Mesh4x4{},
                const char* policy = "rowmajor") {
  return place_model(model, input, m.shape, m.roles, policies().get(policy),
                     tiles);
}

TEST(Placement, TilesUnitRangesNearEvenlyOnPolicyPes) {
  Sequential model;
  model.emplace<Conv2d>(3, 10, 3, 1, 1);
  const Mesh4x4 m;
  const Placement p = place(model, Shape{1, 3, 4, 4}, 4, m);
  ASSERT_EQ(p.ops.size(), 1u);
  const PlacedOp& op = p.ops[0];
  EXPECT_EQ(op.units, 10);
  EXPECT_EQ(op.weights_per_unit, 3 * 3 * 3 + 1);
  ASSERT_EQ(op.tiles.size(), 4u);
  // Contiguous near-even ranges covering [0, 10): floor(t * 10 / 4).
  const std::vector<std::int32_t> begins{0, 2, 5, 7};
  const std::vector<std::int32_t> ends{2, 5, 7, 10};
  const auto nearest = accel::nearest_mc_index(m.shape, m.roles);
  for (std::size_t t = 0; t < op.tiles.size(); ++t) {
    EXPECT_EQ(op.tiles[t].unit_begin, begins[t]);
    EXPECT_EQ(op.tiles[t].unit_end, ends[t]);
    // rowmajor starts at offset 0: the first four PEs in node-id order.
    EXPECT_EQ(op.tiles[t].pe, m.roles.pes[t]);
    EXPECT_EQ(op.tiles[t].mc,
              nearest[static_cast<std::size_t>(op.tiles[t].pe)]);
  }
  EXPECT_EQ(p.total_tiles, 4);
}

TEST(Placement, TileCountIsCappedByUnitsAndOffsetsContinue) {
  Sequential model;
  model.emplace<Conv2d>(1, 2, 3, 1, 1);   // 2 units -> at most 2 tiles
  model.emplace<Conv2d>(2, 6, 3, 1, 1);   // 6 units -> full 4 tiles
  const Mesh4x4 m;
  const Placement p = place(model, Shape{1, 1, 4, 4}, 4, m);
  ASSERT_EQ(p.ops.size(), 2u);
  ASSERT_EQ(p.ops[0].tiles.size(), 2u);
  ASSERT_EQ(p.ops[1].tiles.size(), 4u);
  // The second op's tiles continue the PE cycle where the first stopped,
  // so layers spread across the mesh instead of piling on the same PEs.
  EXPECT_EQ(p.ops[0].tiles[0].pe, m.roles.pes[0]);
  EXPECT_EQ(p.ops[0].tiles[1].pe, m.roles.pes[1]);
  EXPECT_EQ(p.ops[1].tiles[0].pe, m.roles.pes[2]);
  EXPECT_EQ(p.ops[1].tiles[3].pe, m.roles.pes[5]);
  EXPECT_EQ(p.total_tiles, 6);
}

TEST(Placement, FusesNonWeightedLayersIntoTheProducer) {
  Sequential model;
  model.emplace<Conv2d>(1, 4, 3, 1, 1);  // {1,1,8,8} -> {1,4,8,8}
  model.emplace<Relu>();
  model.emplace<MaxPool2d>(2);           // -> {1,4,4,4}
  model.emplace<Linear>(4 * 4 * 4, 10);
  const Placement p = place(model, Shape{1, 1, 8, 8}, 2);
  // Relu and pooling create no ops of their own ...
  ASSERT_EQ(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].kind, dnn::LayerKind::kConv2d);
  EXPECT_EQ(p.ops[1].kind, dnn::LayerKind::kLinear);
  // ... but reshape what the consumer sees: the linear op consumes the
  // pooled volume, not the conv's raw output.
  EXPECT_EQ(p.ops[1].in_shape.numel(), 4 * 4 * 4);
  EXPECT_EQ(p.ops[0].out_shape.numel(), 4 * 8 * 8);
  ASSERT_EQ(p.ops[1].inputs.size(), 1u);
  EXPECT_EQ(p.ops[1].inputs[0].producer, 0);
  EXPECT_FALSE(p.ops[1].inputs[0].elementwise);
  // The model input itself is a dense MC-served edge.
  ASSERT_EQ(p.ops[0].inputs.size(), 1u);
  EXPECT_EQ(p.ops[0].inputs[0].producer, -1);
}

TEST(Placement, ResidualFlattensToProjectionPlusBodyWithSkipEdge) {
  Sequential body;
  body.emplace<Conv2d>(4, 8, 3, 2, 1);
  body.emplace<Relu>();
  Sequential model;
  model.emplace<Conv2d>(3, 4, 3, 1, 1);
  model.emplace<Residual>(std::move(body),
                          std::make_unique<Conv2d>(4, 8, 1, 2, 0));
  const Placement p = place(model, Shape{1, 3, 8, 8}, 2);
  // Flattened ops: entry conv, then the projection (emitted first so the
  // body can reference it), then the body conv.
  ASSERT_EQ(p.ops.size(), 3u);
  EXPECT_EQ(p.ops[1].units, 8);  // projection: 1x1 stride-2, 4 -> 8
  EXPECT_EQ(p.ops[1].weights_per_unit, 4 * 1 * 1 + 1);
  ASSERT_EQ(p.ops[1].inputs.size(), 1u);
  EXPECT_EQ(p.ops[1].inputs[0].producer, 0);
  // The body's last op carries the dense edge from the entry conv plus the
  // elementwise skip edge from the projection.
  ASSERT_EQ(p.ops[2].inputs.size(), 2u);
  EXPECT_EQ(p.ops[2].inputs[0].producer, 0);
  EXPECT_FALSE(p.ops[2].inputs[0].elementwise);
  EXPECT_EQ(p.ops[2].inputs[1].producer, 1);
  EXPECT_TRUE(p.ops[2].inputs[1].elementwise);
  // Projection and body agree on the output geometry.
  EXPECT_EQ(p.ops[1].out_shape.numel(), p.ops[2].out_shape.numel());
}

TEST(Placement, IdentityResidualSkipsFromTheEntryProducer) {
  Sequential body;
  body.emplace<Conv2d>(4, 4, 3, 1, 1);
  Sequential model;
  model.emplace<Conv2d>(1, 4, 3, 1, 1);
  model.emplace<Residual>(std::move(body));
  const Placement p = place(model, Shape{1, 1, 8, 8}, 2);
  ASSERT_EQ(p.ops.size(), 2u);
  ASSERT_EQ(p.ops[1].inputs.size(), 2u);
  EXPECT_EQ(p.ops[1].inputs[1].producer, 0);  // identity shortcut
  EXPECT_TRUE(p.ops[1].inputs[1].elementwise);
}

TEST(Placement, WeightsAreUnitMajorSlicesWithTrailingBias) {
  Sequential model;
  auto conv = std::make_unique<Conv2d>(2, 3, 3, 1, 1);
  // Recognizable values: weights count up from 0, biases from 100.
  std::iota(conv->weight().data().begin(), conv->weight().data().end(), 0.0f);
  std::iota(conv->bias().data().begin(), conv->bias().data().end(), 100.0f);
  model.add(std::move(conv));
  const Placement p = place(model, Shape{1, 2, 4, 4}, 1);
  const PlacedOp& op = p.ops[0];
  const auto wpu = static_cast<std::size_t>(op.weights_per_unit);
  ASSERT_EQ(wpu, static_cast<std::size_t>(2 * 3 * 3 + 1));
  ASSERT_EQ(op.weights.size(), 3 * wpu);
  for (std::size_t u = 0; u < 3; ++u) {
    // Unit u's slice: its contiguous kernel values, then its bias.
    EXPECT_EQ(op.weights[u * wpu], static_cast<float>(u * (wpu - 1)));
    EXPECT_EQ(op.weights[u * wpu + wpu - 2],
              static_cast<float>(u * (wpu - 1) + wpu - 2));
    EXPECT_EQ(op.weights[u * wpu + wpu - 1], 100.0f + static_cast<float>(u));
  }
}

TEST(Placement, ErrorSurface) {
  const Mesh4x4 m;
  Sequential weighted;
  weighted.emplace<Conv2d>(1, 2, 3, 1, 1);

  Sequential empty;
  EXPECT_THROW((void)place(empty, Shape{1, 1, 4, 4}, 2, m),
               std::invalid_argument);
  Sequential unweighted;
  unweighted.emplace<Relu>();
  EXPECT_THROW((void)place(unweighted, Shape{1, 1, 4, 4}, 2, m),
               std::invalid_argument);
  // Batched inputs are not placeable (per-sample dataflow only).
  EXPECT_THROW((void)place(weighted, Shape{2, 1, 4, 4}, 2, m),
               std::invalid_argument);
  EXPECT_THROW((void)place(weighted, Shape{1, 1, 4, 4}, 0, m),
               std::invalid_argument);
  // Channel mismatch between the input and the first conv.
  EXPECT_THROW((void)place(weighted, Shape{1, 3, 4, 4}, 2, m),
               std::invalid_argument);
  // A mesh without PEs cannot host tiles.
  accel::NodeRoles no_pes;
  no_pes.mcs = m.roles.mcs;
  EXPECT_THROW((void)place_model(weighted, Shape{1, 1, 4, 4}, m.shape, no_pes,
                                 policies().get("rowmajor"), 2),
               std::invalid_argument);
  // A residual whose body has no weighted layers is unplaceable.
  Sequential relu_body;
  relu_body.emplace<Relu>();
  Sequential res_model;
  res_model.emplace<Conv2d>(1, 4, 3, 1, 1);
  res_model.emplace<Residual>(std::move(relu_body));
  EXPECT_THROW((void)place(res_model, Shape{1, 1, 4, 4}, 2, m),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocbt::place
