// Tests for the measured link-energy model: configuration gates, the pJ
// point parser, the NocConfig-derived static estimate (pinned to the
// paper's §V-C anchors), and the recorder-to-report conversion checked
// against hand-computed per-link sums.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/bitvec.h"
#include "hw/energy_model.h"
#include "noc/bt_recorder.h"
#include "noc/noc_config.h"

namespace nocbt::hw {
namespace {

TEST(EnergyModelConfig, ValidatesKnobs) {
  EXPECT_NO_THROW(EnergyModelConfig{}.validate());
  EXPECT_THROW(EnergyModelConfig({0.0, 125.0}).validate(),
               std::invalid_argument);
  EXPECT_THROW(EnergyModelConfig({-0.1, 125.0}).validate(),
               std::invalid_argument);
  EXPECT_THROW(EnergyModelConfig({0.173, 0.0}).validate(),
               std::invalid_argument);
  EXPECT_THROW(EnergyModelConfig({0.173, -1.0}).validate(),
               std::invalid_argument);
  EXPECT_THROW(EnergyModelConfig({std::nan(""), 125.0}).validate(),
               std::invalid_argument);
  EXPECT_THROW(EnergyModelConfig({0.173, std::nan("")}).validate(),
               std::invalid_argument);
  // The model constructor enforces the same gate.
  EXPECT_THROW(EnergyModel(EnergyModelConfig{0.0, 125.0}),
               std::invalid_argument);
}

TEST(EnergyModel, ParseEnergyPoint) {
  EXPECT_DOUBLE_EQ(parse_energy_point("innovus"), 0.173);
  EXPECT_DOUBLE_EQ(parse_energy_point("paper"), 0.173);
  EXPECT_DOUBLE_EQ(parse_energy_point("banerjee"), 0.532);
  EXPECT_DOUBLE_EQ(parse_energy_point("0.25"), 0.25);
  EXPECT_THROW(parse_energy_point(""), std::invalid_argument);
  EXPECT_THROW(parse_energy_point("garbage"), std::invalid_argument);
  EXPECT_THROW(parse_energy_point("0.25pJ"), std::invalid_argument);
  EXPECT_THROW(parse_energy_point("-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_energy_point("0"), std::invalid_argument);
}

TEST(EnergyModel, EnergyArithmetic) {
  const EnergyModel model(EnergyModelConfig{0.173, 125.0});
  EXPECT_DOUBLE_EQ(model.energy_pj(0), 0.0);
  EXPECT_DOUBLE_EQ(model.energy_pj(1'000'000), 173'000.0);
  EXPECT_NEAR(model.energy_joules(1'000'000), 1e6 * 0.173e-12, 1e-18);
}

TEST(EnergyModel, PowerMatchesPaperAnchorForOneFullyToggledCycle) {
  // One cycle in which half of every 128-bit wire of the 8x8 mesh's 112
  // links toggles is 112 * 64 transitions — the static model's assumption
  // made concrete. The measured path must land on the same 155.008 mW.
  const EnergyModel model(EnergyModelConfig{kInnovusEnergyPj, 125.0});
  EXPECT_NEAR(model.power_mw(112 * 64, 1), 155.008, 1e-9);
  const EnergyModel banerjee(EnergyModelConfig{kBanerjeeEnergyPj, 125.0});
  EXPECT_NEAR(banerjee.power_mw(112 * 64, 1), 476.672, 1e-9);
  // Twice the cycles at the same transition count halves average power.
  EXPECT_NEAR(model.power_mw(112 * 64, 2), 155.008 / 2, 1e-9);
  EXPECT_DOUBLE_EQ(model.power_mw(12345, 0), 0.0);  // nothing ran
}

TEST(EnergyModel, FortyPointEightFivePercentReductionScalesPower) {
  // The paper's headline: 40.85% fewer transitions -> 40.85% less power.
  const EnergyModel model(EnergyModelConfig{kInnovusEnergyPj, 125.0});
  const std::uint64_t baseline = 112 * 64 * 1000;
  const auto reduced =
      static_cast<std::uint64_t>(std::llround(baseline * (1.0 - 0.4085)));
  const double ratio = model.power_mw(reduced, 1000) /
                       model.power_mw(baseline, 1000);
  EXPECT_NEAR(ratio, 1.0 - 0.4085, 1e-6);
  EXPECT_NEAR(model.power_mw(baseline, 1000), 155.008, 1e-9);
  EXPECT_NEAR(model.power_mw(reduced, 1000), 91.688, 1e-3);
}

TEST(EnergyModel, StaticEstimateDerivesLinksAndWidthFromNocConfig) {
  const EnergyModel model(EnergyModelConfig{kInnovusEnergyPj, 125.0});

  noc::NocConfig paper;  // 8x8 mesh of 128-bit links: the §V-C setup
  paper.rows = 8;
  paper.cols = 8;
  paper.flit_payload_bits = 128;
  const LinkPowerConfig cfg = model.static_estimate(paper);
  EXPECT_EQ(cfg.num_links, 112u);
  EXPECT_EQ(cfg.link_width_bits, 128u);
  EXPECT_NEAR(link_power_mw(cfg), 155.008, 1e-9);
  EXPECT_NEAR(link_power_with_reduction_mw(cfg, 0.4085), 91.688, 0.01);

  const EnergyModel banerjee(EnergyModelConfig{kBanerjeeEnergyPj, 125.0});
  EXPECT_NEAR(link_power_mw(banerjee.static_estimate(paper)), 476.672, 1e-9);

  // Not hardcoded: the default 4x4/512-bit NocConfig yields its own counts.
  const noc::NocConfig small;
  const LinkPowerConfig small_cfg = model.static_estimate(small);
  EXPECT_EQ(small_cfg.num_links, 24u);
  EXPECT_EQ(small_cfg.link_width_bits, 512u);

  // 1xN chains are legal meshes with N-1 links.
  noc::NocConfig chain;
  chain.rows = 1;
  chain.cols = 6;
  EXPECT_EQ(model.static_estimate(chain).num_links, 5u);

  noc::NocConfig bad;
  bad.rows = 0;
  EXPECT_THROW(model.static_estimate(bad), std::invalid_argument);
}

TEST(EnergyModel, MeasureMatchesHandComputedPerLinkSums) {
  // Three 8-bit links, one per class, fed hand-picked patterns:
  //   injection:    0x00 -> 0xFF -> 0x00      = 8 + 8 = 16 BT, 3 flits
  //   inter-router: 0x00 -> 0x0F              = 4 BT, 2 flits
  //   ejection:     0xAA                      = 4 BT (from idle 0), 1 flit
  noc::BtRecorder recorder(8);
  const auto inj = recorder.register_link(
      noc::LinkInfo{noc::LinkKind::kInjection, 0, 1, -1});
  const auto mid = recorder.register_link(
      noc::LinkInfo{noc::LinkKind::kInterRouter, 1, 2, 3});
  const auto ej = recorder.register_link(
      noc::LinkInfo{noc::LinkKind::kEjection, 2, 2, -1});

  const auto pattern = [](std::uint8_t byte) {
    BitVec v(8);
    for (unsigned b = 0; b < 8; ++b)
      if (byte & (1u << b)) v.set_bit(b, true);
    return v;
  };
  recorder.observe(inj, pattern(0x00));
  recorder.observe(inj, pattern(0xFF));
  recorder.observe(inj, pattern(0x00));
  recorder.observe(mid, pattern(0x00));
  recorder.observe(mid, pattern(0x0F));
  recorder.observe(ej, pattern(0xAA));

  const EnergyModel model(EnergyModelConfig{0.5, 100.0});  // easy arithmetic

  // Fig. 8's sum counts inter-router + ejection: 4 + 4 = 8 transitions.
  EXPECT_EQ(recorder.total(), 8u);
  EXPECT_DOUBLE_EQ(model.energy_pj(recorder.total()), 8 * 0.5);
  // 4 pJ over 10 cycles at 100 MHz: 4e-12 J / 1e-7 s = 4e-5 W = 0.04 mW.
  EXPECT_NEAR(model.power_mw(recorder.total(), 10), 0.04, 1e-12);

  EXPECT_EQ(recorder.by_kind(noc::LinkKind::kInjection), 16u);
  EXPECT_DOUBLE_EQ(model.energy_pj(recorder.by_kind(noc::LinkKind::kInjection)),
                   16 * 0.5);
  EXPECT_EQ(recorder.by_kind(noc::LinkKind::kInterRouter), 4u);
  EXPECT_EQ(recorder.by_kind(noc::LinkKind::kEjection), 4u);

  const std::vector<LinkEnergyRow> links = model.annotate(recorder.snapshot());
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0].link_id, inj);
  EXPECT_EQ(links[0].transitions, 16u);
  EXPECT_EQ(links[0].flits, 3u);
  EXPECT_EQ(links[1].link_id, mid);
  EXPECT_EQ(links[1].transitions, 4u);
  EXPECT_EQ(links[1].flits, 2u);
  EXPECT_EQ(links[1].info.src_port, 3);
  EXPECT_EQ(links[2].link_id, ej);
  EXPECT_EQ(links[2].transitions, 4u);
  EXPECT_EQ(links[2].flits, 1u);

  // Per-link energies sum to the all-links energy; the router output
  // ports (inter-router + ejection) sum to the energy of total().
  double all_links = 0.0;
  double router_outputs = 0.0;
  for (const LinkEnergyRow& link : links) {
    all_links += link.energy_pj;
    if (link.info.kind != noc::LinkKind::kInjection)
      router_outputs += link.energy_pj;
  }
  EXPECT_DOUBLE_EQ(all_links, model.energy_pj(recorder.total_all_links()));
  EXPECT_DOUBLE_EQ(all_links, (16 + 4 + 4) * 0.5);
  EXPECT_DOUBLE_EQ(router_outputs, model.energy_pj(recorder.total()));
}

TEST(EnergyModel, AnnotateAttachesEnergyToSnapshots) {
  const EnergyModel model(EnergyModelConfig{2.0, 125.0});
  std::vector<noc::LinkObservation> observations{
      {0, noc::LinkInfo{noc::LinkKind::kInterRouter, 0, 1, 2}, 5, 100},
      {1, noc::LinkInfo{noc::LinkKind::kEjection, 1, 1, -1}, 2, 0},
  };
  const auto rows = model.annotate(observations);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].link_id, 0);
  EXPECT_EQ(rows[0].transitions, 100u);
  EXPECT_DOUBLE_EQ(rows[0].energy_pj, 200.0);
  EXPECT_EQ(rows[1].flits, 2u);
  EXPECT_DOUBLE_EQ(rows[1].energy_pj, 0.0);
}

TEST(EnergyModel, SnapshotOrderAndContentMatchAccessors) {
  noc::BtRecorder recorder(4);
  const auto a = recorder.register_link(
      noc::LinkInfo{noc::LinkKind::kInterRouter, 0, 1, 1});
  const auto b = recorder.register_link(
      noc::LinkInfo{noc::LinkKind::kInterRouter, 1, 0, 2});
  BitVec v(4);
  v.set_bit(0, true);
  recorder.observe(b, v);
  const auto snap = recorder.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].link_id, a);
  EXPECT_EQ(snap[0].info,
            (noc::LinkInfo{noc::LinkKind::kInterRouter, 0, 1, 1}));
  EXPECT_EQ(snap[0].transitions, 0u);
  EXPECT_EQ(snap[1].link_id, b);
  EXPECT_EQ(snap[1].transitions, 1u);
  EXPECT_EQ(snap[1].flits, 1u);
}

}  // namespace
}  // namespace nocbt::hw
