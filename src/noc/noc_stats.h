#pragma once
// Aggregate transport statistics for a simulation run.

#include <cstdint>

#include "common/stats.h"
#include "noc/sim_profiler.h"

namespace nocbt::noc {

/// Counters and distributions collected by the Network.
struct NocStats {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t cycles = 0;

  /// Step-loop profile (cycles stepped vs. skipped, component steps run
  /// vs. skipped by the active-set engine). Deterministic for a given
  /// config and injection schedule.
  SimProfile sim;

  /// End-to-end packet latency in cycles, source-queueing included.
  RunningStat packet_latency;
  /// Inter-router hops per packet.
  RunningStat packet_hops;
};

}  // namespace nocbt::noc
