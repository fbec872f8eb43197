#include "hw/energy_model.h"

#include <cmath>
#include <stdexcept>

#include "common/config.h"

namespace nocbt::hw {

void EnergyModelConfig::validate() const {
  // Negated tests so NaN fails them too.
  if (!(energy_per_transition_pj > 0.0) ||
      !std::isfinite(energy_per_transition_pj))
    throw std::invalid_argument(
        "EnergyModelConfig: energy_per_transition_pj must be positive and "
        "finite");
  if (!(frequency_mhz > 0.0) || !std::isfinite(frequency_mhz))
    throw std::invalid_argument(
        "EnergyModelConfig: frequency_mhz must be positive and finite");
}

double parse_energy_point(const std::string& s) {
  if (s == "innovus" || s == "paper") return kInnovusEnergyPj;
  if (s == "banerjee") return kBanerjeeEnergyPj;
  double v = 0.0;
  try {
    v = parse_double_strict(s);
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "parse_energy_point: expected 'innovus', 'banerjee' or a pJ value, "
        "got '" + s + "'");
  }
  if (!(v > 0.0) || !std::isfinite(v))
    throw std::invalid_argument(
        "parse_energy_point: pJ/transition must be positive, got '" + s + "'");
  return v;
}

EnergyModel::EnergyModel(const EnergyModelConfig& config) : config_(config) {
  config_.validate();
}

double EnergyModel::energy_pj(std::uint64_t transitions) const noexcept {
  return static_cast<double>(transitions) * config_.energy_per_transition_pj;
}

double EnergyModel::energy_joules(std::uint64_t transitions) const noexcept {
  return energy_pj(transitions) * 1e-12;
}

double EnergyModel::power_mw(std::uint64_t transitions,
                             std::uint64_t cycles) const noexcept {
  if (cycles == 0) return 0.0;
  // E = n * pJ * 1e-12 J over t = cycles / (f_MHz * 1e6) s, so
  // P = n * pJ * f_MHz / cycles * 1e-6 W = n * pJ * f_MHz / cycles / 1e3 mW.
  return energy_pj(transitions) * config_.frequency_mhz /
         static_cast<double>(cycles) / 1e3;
}

LinkPowerConfig EnergyModel::static_estimate(const noc::NocConfig& noc,
                                             double toggle_fraction) const {
  noc.validate();
  LinkPowerConfig cfg;
  cfg.energy_per_transition_pj = config_.energy_per_transition_pj;
  cfg.frequency_mhz = config_.frequency_mhz;
  cfg.link_width_bits = noc.flit_payload_bits;
  cfg.num_links = mesh_bidirectional_links(static_cast<unsigned>(noc.rows),
                                           static_cast<unsigned>(noc.cols));
  cfg.toggle_fraction = toggle_fraction;
  return cfg;
}

std::vector<LinkEnergyRow> EnergyModel::annotate(
    const std::vector<noc::LinkObservation>& links) const {
  std::vector<LinkEnergyRow> out;
  out.reserve(links.size());
  for (const noc::LinkObservation& link : links)
    out.push_back(LinkEnergyRow{link.link_id, link.info, link.flits,
                                link.transitions, energy_pj(link.transitions)});
  return out;
}

}  // namespace nocbt::hw
