// End-to-end platform tests: full DNN inference over the simulated NoC.
//
// The decisive properties:
//  * the NoC-computed output equals host inference (the network really
//    transports and computes the model, bit-for-bit through flit payloads);
//  * O0/O1/O2 produce identical outputs (order invariance, Fig. 5) while
//    ordered runs produce strictly fewer bit transitions;
//  * separated-ordering (O2) reduces BT at least as much as affiliated (O1).

#include <gtest/gtest.h>

#include <cmath>

#include "accel/platform.h"
#include "common/rng.h"
#include "dnn/activation.h"
#include "dnn/conv2d.h"
#include "dnn/linear.h"
#include "dnn/models.h"
#include "dnn/pooling.h"
#include "dnn/synthetic_data.h"

namespace nocbt::accel {
namespace {

using ordering::OrderingMode;

// A small but representative model: conv -> relu -> pool -> fc. The 5x5
// two-channel kernel gives 50-pair tasks (7 flits per packet), enough of an
// ordering window for the BT mechanism to act; weights are "trained-like"
// (zero-concentrated Laplace), the distribution the paper's technique
// targets.
dnn::Sequential make_tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(2, 4, 5, 1, 2);  // 4 @ 8x8, 50-value windows
  model.emplace<dnn::Relu>();
  model.emplace<dnn::MaxPool2d>(2);           // 4 @ 4x4
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(64, 10);
  dnn::fill_weights_trained_like(model, rng, 0.05);
  return model;
}

dnn::Tensor make_input(std::uint64_t seed) {
  Rng rng(seed);
  dnn::Tensor input(dnn::Shape{1, 2, 8, 8});
  for (auto& v : input.data())
    v = static_cast<float>(rng.flip(0.7) ? rng.laplace(0.2)
                                         : rng.uniform(-1.0, 1.0));
  return input;
}

TEST(Platform, Float32MatchesHostInference) {
  dnn::Sequential model = make_tiny_model(1);
  const dnn::Tensor input = make_input(2);
  const dnn::Tensor host = model.forward(input);

  AccelConfig cfg = AccelConfig::defaults(DataFormat::kFloat32,
                                          OrderingMode::kBaseline, 4, 4, 2);
  NocDnaPlatform platform(cfg, model);
  const InferenceResult result = platform.run(input);

  ASSERT_EQ(result.output.shape(), host.shape());
  for (std::int64_t i = 0; i < host.numel(); ++i)
    EXPECT_NEAR(result.output.data()[static_cast<std::size_t>(i)],
                host.data()[static_cast<std::size_t>(i)], 1e-4)
        << "logit " << i;
  EXPECT_GT(result.total_cycles, 0u);
  EXPECT_GT(result.bt_total, 0u);
  EXPECT_GT(result.data_packets, 0u);
  EXPECT_EQ(result.data_packets, result.result_packets);
}

TEST(Platform, OrderingModesProduceIdenticalOutputsFloat32) {
  const dnn::Tensor input = make_input(3);
  dnn::Tensor outputs[3];
  std::uint64_t bts[3];
  const OrderingMode modes[] = {OrderingMode::kBaseline,
                                OrderingMode::kAffiliated,
                                OrderingMode::kSeparated};
  for (int m = 0; m < 3; ++m) {
    dnn::Sequential model = make_tiny_model(1);
    AccelConfig cfg = AccelConfig::defaults(DataFormat::kFloat32, modes[m],
                                            4, 4, 2);
    NocDnaPlatform platform(cfg, model);
    const InferenceResult result = platform.run(input);
    outputs[m] = result.output;
    bts[m] = result.bt_total;
  }
  for (std::int64_t i = 0; i < outputs[0].numel(); ++i) {
    EXPECT_NEAR(outputs[1].data()[static_cast<std::size_t>(i)],
                outputs[0].data()[static_cast<std::size_t>(i)], 1e-4);
    EXPECT_NEAR(outputs[2].data()[static_cast<std::size_t>(i)],
                outputs[0].data()[static_cast<std::size_t>(i)], 1e-4);
  }
  // Both orderings must reduce BT on this workload.
  EXPECT_LT(bts[1], bts[0]);
  EXPECT_LT(bts[2], bts[0]);
}

TEST(Platform, OrderingModesBitExactForFixed8) {
  const dnn::Tensor input = make_input(4);
  dnn::Tensor outputs[3];
  std::uint64_t bts[3];
  const OrderingMode modes[] = {OrderingMode::kBaseline,
                                OrderingMode::kAffiliated,
                                OrderingMode::kSeparated};
  for (int m = 0; m < 3; ++m) {
    dnn::Sequential model = make_tiny_model(1);
    AccelConfig cfg = AccelConfig::defaults(DataFormat::kFixed8, modes[m],
                                            4, 4, 2);
    NocDnaPlatform platform(cfg, model);
    const InferenceResult result = platform.run(input);
    outputs[m] = result.output;
    bts[m] = result.bt_total;
  }
  // Fixed-8 with int64 MACs: bit-exact equality across orderings.
  for (std::int64_t i = 0; i < outputs[0].numel(); ++i) {
    EXPECT_EQ(outputs[1].data()[static_cast<std::size_t>(i)],
              outputs[0].data()[static_cast<std::size_t>(i)]);
    EXPECT_EQ(outputs[2].data()[static_cast<std::size_t>(i)],
              outputs[0].data()[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(bts[1], bts[0]);
  EXPECT_LT(bts[2], bts[0]);
  // Separated reduces at least as much as affiliated (it additionally
  // orders the input half).
  EXPECT_LE(bts[2], bts[1]);
}

TEST(Platform, LayerStatsAccount) {
  dnn::Sequential model = make_tiny_model(5);
  const dnn::Tensor input = make_input(6);
  AccelConfig cfg = AccelConfig::defaults(DataFormat::kFixed8,
                                          OrderingMode::kBaseline, 4, 4, 2);
  NocDnaPlatform platform(cfg, model);
  const InferenceResult result = platform.run(input);

  // Two weighted layers: conv (4*8*8 = 256 tasks) and fc (10 tasks).
  ASSERT_EQ(result.layers.size(), 2u);
  EXPECT_EQ(result.layers[0].tasks, 256u);
  EXPECT_EQ(result.layers[1].tasks, 10u);
  EXPECT_EQ(result.layers[0].data_packets, 256u);
  EXPECT_EQ(result.data_packets, 266u);
  std::uint64_t bt_sum = 0;
  for (const auto& l : result.layers) bt_sum += l.bt;
  EXPECT_LE(bt_sum, result.bt_total);
  EXPECT_GE(result.trace.size(), 2u * 266u);  // data + result packets
}

TEST(Platform, EmbeddedIndexCostsMoreBt) {
  const dnn::Tensor input = make_input(7);
  std::uint64_t bt_sideband;
  std::uint64_t bt_embedded;
  {
    dnn::Sequential model = make_tiny_model(8);
    AccelConfig cfg = AccelConfig::defaults(DataFormat::kFixed8,
                                            OrderingMode::kSeparated, 4, 4, 2);
    NocDnaPlatform platform(cfg, model);
    bt_sideband = platform.run(input).bt_total;
  }
  {
    dnn::Sequential model = make_tiny_model(8);
    AccelConfig cfg = AccelConfig::defaults(DataFormat::kFixed8,
                                            OrderingMode::kSeparated, 4, 4, 2);
    cfg.embed_pairing_index = true;
    NocDnaPlatform platform(cfg, model);
    const InferenceResult result = platform.run(input);
    bt_embedded = result.bt_total;
    // Outputs must still be correct with the in-band index.
    dnn::Sequential host_model = make_tiny_model(8);
    const dnn::Tensor host = host_model.forward(input);
    for (std::int64_t i = 0; i < host.numel(); ++i)
      EXPECT_NEAR(result.output.data()[static_cast<std::size_t>(i)],
                  host.data()[static_cast<std::size_t>(i)], 0.2);
  }
  EXPECT_GT(bt_embedded, bt_sideband);
}

TEST(Platform, OrderingLatencyModelStillCompletes) {
  dnn::Sequential model = make_tiny_model(9);
  const dnn::Tensor input = make_input(10);
  AccelConfig cfg = AccelConfig::defaults(DataFormat::kFixed8,
                                          OrderingMode::kSeparated, 4, 4, 2);
  cfg.model_ordering_latency = true;
  NocDnaPlatform platform(cfg, model);
  const InferenceResult result = platform.run(input);
  EXPECT_GT(result.total_cycles, 0u);
  // Output correctness is unaffected by timing.
  dnn::Sequential host_model = make_tiny_model(9);
  const dnn::Tensor host = host_model.forward(input);
  for (std::int64_t i = 0; i < host.numel(); ++i)
    EXPECT_NEAR(result.output.data()[static_cast<std::size_t>(i)],
                host.data()[static_cast<std::size_t>(i)], 0.2);
}

TEST(Platform, RunsOn8x8WithMoreMcs) {
  dnn::Sequential model = make_tiny_model(11);
  const dnn::Tensor input = make_input(12);
  AccelConfig cfg = AccelConfig::defaults(DataFormat::kFixed8,
                                          OrderingMode::kAffiliated, 8, 8, 4);
  NocDnaPlatform platform(cfg, model);
  const InferenceResult result = platform.run(input);
  EXPECT_GT(result.bt_total, 0u);
  EXPECT_EQ(result.data_packets, 266u);
}

TEST(Platform, RejectsBatchedInput) {
  dnn::Sequential model = make_tiny_model(13);
  AccelConfig cfg = AccelConfig::defaults(DataFormat::kFloat32,
                                          OrderingMode::kBaseline, 4, 4, 2);
  NocDnaPlatform platform(cfg, model);
  dnn::Tensor batched(dnn::Shape{2, 1, 8, 8});
  EXPECT_THROW((void)platform.run(batched), std::invalid_argument);
}

TEST(Platform, ConfigValidation) {
  EXPECT_THROW(AccelConfig::defaults(DataFormat::kFloat32,
                                     OrderingMode::kBaseline, 4, 4, 16),
               std::invalid_argument);
  AccelConfig cfg = AccelConfig::defaults(DataFormat::kFloat32,
                                          OrderingMode::kBaseline, 4, 4, 2);
  cfg.noc.flit_payload_bits = 48;  // not a multiple of 32... actually 48 is not
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  AccelConfig drain_cfg = AccelConfig::defaults(DataFormat::kFloat32,
                                                OrderingMode::kBaseline, 4, 4, 2);
  drain_cfg.drain_max_cycles = 0;
  EXPECT_THROW(drain_cfg.validate(), std::invalid_argument);
}

TEST(Platform, FinalDrainBudgetIsConfigurableAndThrowsOnNonDrain) {
  // The last layer's result credits are still in flight when the layer
  // loop exits; a 1-cycle drain budget cannot deliver them, and that must
  // be a loud error (the old behavior silently discarded the returned
  // bool), while the default budget drains the same run cleanly.
  dnn::Sequential model = make_tiny_model(17);
  const dnn::Tensor input = make_input(18);

  AccelConfig cfg = AccelConfig::defaults(DataFormat::kFixed8,
                                          OrderingMode::kSeparated, 4, 4, 2);
  // 2-cycle links: the credit returned for the last delivered result flit
  // is pushed the cycle the layer loop exits and lands 2 cycles later, so
  // a 1-cycle budget deterministically cannot reach idle.
  cfg.noc.channel_latency = 2;
  cfg.drain_max_cycles = 1;
  NocDnaPlatform strict(cfg, model);
  try {
    (void)strict.run(input);
    FAIL() << "expected the 1-cycle drain budget to overflow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("failed to drain"),
              std::string::npos)
        << e.what();
  }

  cfg.drain_max_cycles = 100'000;
  NocDnaPlatform relaxed(cfg, model);
  const InferenceResult result = relaxed.run(input);
  EXPECT_GT(result.total_cycles, 0u);
}

}  // namespace
}  // namespace nocbt::accel
