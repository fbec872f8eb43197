#pragma once
// Measured link-energy model (§V-C, closed-loop): converts measured bit
// transitions — a noc::BtRecorder's total() and per-link snapshot(),
// whether Network charged them flit by flit or the wire-order replay
// counted them — into the paper's bottom-line units: pJ of link energy
// and mW of average link power.
//
// This complements the static toggle-fraction estimate in link_energy.h:
// that model *assumes* how many wires toggle per cycle; this one consumes
// the measured per-link counts, so campaign reports can print power for
// any mesh shape, link width, and traffic pattern. The two meet at the
// paper's anchor: one cycle of an 8x8 mesh with half of every 128-bit
// link toggling is 112 * 64 transitions, and at 0.173 pJ / 125 MHz both
// paths yield 155.008 mW (476.672 mW under Banerjee's 0.532 pJ point).

#include <cstdint>
#include <string>
#include <vector>

#include "hw/link_energy.h"
#include "noc/bt_recorder.h"
#include "noc/noc_config.h"

namespace nocbt::hw {

/// The paper's Innovus-extracted energy per bit transition (pJ).
inline constexpr double kInnovusEnergyPj = 0.173;

/// Knobs of the measured model. Both published pJ points are selectable
/// (kInnovusEnergyPj / kBanerjeeEnergyPj) alongside arbitrary values.
struct EnergyModelConfig {
  double energy_per_transition_pj = kInnovusEnergyPj;
  double frequency_mhz = 125.0;  ///< link clock (paper setup: 125 MHz)

  /// Throws std::invalid_argument unless both knobs are positive and finite.
  void validate() const;
};

/// Parse a pJ/transition selector: "innovus"/"paper" -> 0.173,
/// "banerjee" -> 0.532, otherwise a positive numeric literal (the full
/// string must parse). Throws std::invalid_argument on junk.
[[nodiscard]] double parse_energy_point(const std::string& s);

/// One monitored link's measurements with its energy attached.
struct LinkEnergyRow {
  std::int32_t link_id = -1;
  noc::LinkInfo info;
  std::uint64_t flits = 0;
  std::uint64_t transitions = 0;
  double energy_pj = 0.0;
};

[[nodiscard]] inline bool operator==(const LinkEnergyRow& a,
                                     const LinkEnergyRow& b) noexcept {
  return a.link_id == b.link_id && a.info == b.info && a.flits == b.flits &&
         a.transitions == b.transitions && a.energy_pj == b.energy_pj;
}

/// Converts transition counts to energy/power at a configured pJ point and
/// clock. Link counts and widths are never assumed: they are implicit in
/// the measured counts (energy_pj/power_mw of BtRecorder::total(),
/// annotate of its snapshot()) or derived from the live NocConfig
/// (static_estimate).
class EnergyModel {
 public:
  EnergyModel() : EnergyModel(EnergyModelConfig{}) {}
  explicit EnergyModel(const EnergyModelConfig& config);  // validates

  [[nodiscard]] const EnergyModelConfig& config() const noexcept {
    return config_;
  }

  /// Energy of a transition count, in pJ / Joules.
  [[nodiscard]] double energy_pj(std::uint64_t transitions) const noexcept;
  [[nodiscard]] double energy_joules(std::uint64_t transitions) const noexcept;

  /// Average power (mW) of `transitions` spread over `cycles` cycles at
  /// the configured clock; 0 when cycles is 0 (nothing ran).
  [[nodiscard]] double power_mw(std::uint64_t transitions,
                                std::uint64_t cycles) const noexcept;

  /// §V-C-style static estimate with the link count and width derived from
  /// a live NocConfig instead of the hardcoded 8x8/128-bit defaults.
  /// Feed the result to link_power_mw / link_power_with_reduction_mw.
  [[nodiscard]] LinkPowerConfig static_estimate(
      const noc::NocConfig& noc, double toggle_fraction = 0.5) const;

  /// Attach energy to frozen per-link counters (BtRecorder::snapshot()).
  [[nodiscard]] std::vector<LinkEnergyRow> annotate(
      const std::vector<noc::LinkObservation>& links) const;

 private:
  EnergyModelConfig config_;
};

}  // namespace nocbt::hw
