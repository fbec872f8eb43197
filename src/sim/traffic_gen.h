#pragma once
// Config-driven traffic: the workload half of the scenario campaign
// engine. sim::generate_schedule turns a ScenarioSpec into its whole list
// of timed injection requests — (cycle, src, dst, weight/input value
// patterns) — that the campaign runner flitizes (with O0/O1/O2 ordering
// applied) and drives through a noc::Network.
//
// Geometry patterns are the classic NoC suite (uniform-random, transpose,
// bit-complement, hotspot, bursty sources), a replay of a recorded
// PacketTrace (PacketTrace::load_csv) — non-DNN traffic the accelerator
// pipeline cannot express — and the placed model-zoo schedule of
// src/place. Payload values are drawn from a configurable distribution and
// encoded with the existing float-32 / fixed-point codecs, so the popcount
// profile the ordering exploits is under experiment control.
//
// Determinism contract: a schedule is a pure function of the ScenarioSpec
// (including its seed). Cycles are non-decreasing.

#include "noc/trace.h"
#include "place/schedule.h"
#include "sim/scenario.h"

namespace nocbt::sim {

/// One packet worth of traffic; the placement engine builds the same
/// requests, so its schedule is the runner's request list as it is.
using InjectionRequest = place::InjectionRequest;

/// A fully-materialized injection schedule: the pre-ordering traffic every
/// variant of a scenario (baseline, ordered, analytical or cycle) replays.
using InjectionSchedule = place::InjectionSchedule;

/// The spec's whole injection schedule. Validates the spec first; throws
/// std::invalid_argument on a spec its generator kind cannot satisfy (e.g.
/// transpose on a non-square mesh, replay without a trace file, a model
/// workload, whose inferences make their own traffic).
[[nodiscard]] InjectionSchedule generate_schedule(const ScenarioSpec& spec);

/// The spec's schedule as a payload-carrying PacketTrace: one event per
/// request, with the pre-ordering (weight, input) wire patterns recorded
/// verbatim. Replaying the dumped trace under the same mesh, format and
/// window reproduces the schedule bit-exactly (replay re-injects recorded
/// payloads), so a replayed campaign matches the directly-generated one
/// byte for byte.
[[nodiscard]] noc::PacketTrace record_schedule(const ScenarioSpec& spec);

}  // namespace nocbt::sim
