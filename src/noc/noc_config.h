#pragma once
// NoC configuration. Defaults mirror the paper's evaluation setup (§V-B):
// 2D mesh, X-Y routing, 4 virtual channels with 4-flit buffers per VC.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "noc/routing.h"

namespace nocbt::noc {

/// Which simulation backend produces a run's measurements.
///
/// Both cycle engines run one step loop (Network::step), which steps the
/// components (NIs, then routers) set in a due mask in id order.
/// kActiveSet is the production engine: the mask holds only the components
/// that can make progress this cycle — quiescent ones are skipped and
/// woken by their channels when a flit or credit arrives — and `idle()`
/// reads a few counters and one mask. kFullScan is the retained naive
/// reference: every component steps every cycle, and `idle()` scans the
/// whole mesh; it exists so differential tests (and micro_noc) can prove
/// the active set cycle- and BT-exact against it. Both cycle engines are
/// observationally identical; they differ in wall-clock only.
///
/// kAnalytical does not step cycles at all: it computes per-link flit
/// loads, bit transitions, zero-load latencies and drain time directly
/// from the packet schedule (see noc::AnalyticalEngine). It is exact —
/// byte-identical to the cycle engines — whenever the schedule is
/// congestion-free, and it proves that precondition itself. Network only
/// runs the two cycle engines; selecting kAnalytical there throws.
enum class SimEngine : std::uint8_t {
  kActiveSet,   ///< steps only the components due (default)
  kFullScan,    ///< naive all-components-every-cycle reference
  kAnalytical,  ///< zero-load analytical backend (noc::AnalyticalEngine)
};

[[nodiscard]] inline const char* to_string(SimEngine engine) noexcept {
  switch (engine) {
    case SimEngine::kActiveSet: return "active";
    case SimEngine::kFullScan: return "fullscan";
    case SimEngine::kAnalytical: return "analytical";
  }
  return "?";
}

[[nodiscard]] inline SimEngine parse_sim_engine(const std::string& s) {
  if (s == "active" || s == "active-set" || s == "activeset")
    return SimEngine::kActiveSet;
  if (s == "fullscan" || s == "full-scan" || s == "naive")
    return SimEngine::kFullScan;
  if (s == "analytical" || s == "analytic")
    return SimEngine::kAnalytical;
  throw std::invalid_argument("parse_sim_engine: unknown engine '" + s +
                              "' (want active | fullscan | analytical)");
}

/// Full network configuration.
struct NocConfig {
  std::int32_t rows = 4;
  std::int32_t cols = 4;
  std::int32_t num_vcs = 4;          ///< virtual channels per port
  std::int32_t vc_buffer_depth = 4;  ///< flit slots per VC
  unsigned flit_payload_bits = 512;  ///< link width (payload wires)
  unsigned channel_latency = 1;      ///< link traversal cycles
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  SimEngine engine = SimEngine::kActiveSet;  ///< step-loop implementation
  /// Accept src == dst packets (NI -> router local port -> NI loopback).
  /// Synthetic traffic patterns usually want these rejected at injection so
  /// a misconfigured generator fails loudly instead of inflating delivery
  /// counts with zero-hop traffic.
  bool allow_self_traffic = true;

  /// Throws std::invalid_argument on an unusable configuration.
  void validate() const {
    if (rows < 1 || cols < 1)
      throw std::invalid_argument("NocConfig: mesh must be at least 1x1");
    if (num_vcs < 1) throw std::invalid_argument("NocConfig: num_vcs must be >= 1");
    if (vc_buffer_depth < 1)
      throw std::invalid_argument("NocConfig: vc_buffer_depth must be >= 1");
    if (flit_payload_bits == 0)
      throw std::invalid_argument("NocConfig: flit_payload_bits must be > 0");
    if (channel_latency < 1)
      throw std::invalid_argument("NocConfig: channel_latency must be >= 1");
  }

  [[nodiscard]] std::int32_t node_count() const noexcept { return rows * cols; }
};

}  // namespace nocbt::noc
