// Table-driven parse/to_string round-trip coverage for every enum pair in
// noc/noc_config.h, sim/scenario.h and ordering/ordering.h. New enum values added without
// updating the parser (or vice versa) fail here instead of surfacing as a
// confusing CLI error; the suites also pin that every parser's error
// message enumerates the valid spellings, so a typo at the command line
// tells the user what would have worked.

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>

#include "noc/noc_config.h"
#include "ordering/ordering.h"
#include "sim/scenario.h"

namespace nocbt {
namespace {

/// Run `parse` on junk and return the exception message.
template <typename Parse>
std::string error_message(Parse parse) {
  try {
    (void)parse("definitely-not-a-value");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "parser accepted junk";
  return {};
}

void expect_mentions_all(const std::string& message,
                         std::initializer_list<const char*> tokens) {
  for (const char* token : tokens)
    EXPECT_NE(message.find(token), std::string::npos)
        << "error message '" << message << "' does not mention '" << token
        << "'";
}

TEST(EnumRoundTrip, SimEngine) {
  for (const noc::SimEngine engine :
       {noc::SimEngine::kActiveSet, noc::SimEngine::kFullScan,
        noc::SimEngine::kAnalytical})
    EXPECT_EQ(noc::parse_sim_engine(noc::to_string(engine)), engine)
        << noc::to_string(engine);
  expect_mentions_all(error_message(noc::parse_sim_engine),
                      {"active", "fullscan", "analytical"});
}

TEST(EnumRoundTrip, GeneratorKind) {
  for (const sim::GeneratorKind kind :
       {sim::GeneratorKind::kUniform, sim::GeneratorKind::kTranspose,
        sim::GeneratorKind::kBitComplement, sim::GeneratorKind::kHotspot,
        sim::GeneratorKind::kBurst, sim::GeneratorKind::kReplay,
        sim::GeneratorKind::kModel})
    EXPECT_EQ(sim::parse_generator_kind(sim::to_string(kind)), kind)
        << sim::to_string(kind);
  expect_mentions_all(error_message(sim::parse_generator_kind),
                      {"uniform", "transpose", "bitcomp", "hotspot", "burst",
                       "replay", "model"});
}

TEST(EnumRoundTrip, ValueDist) {
  for (const sim::ValueDist dist :
       {sim::ValueDist::kUniform, sim::ValueDist::kNormal,
        sim::ValueDist::kLaplace})
    EXPECT_EQ(sim::parse_value_dist(sim::to_string(dist)), dist)
        << sim::to_string(dist);
  expect_mentions_all(error_message(sim::parse_value_dist),
                      {"uniform", "normal", "laplace"});
}

TEST(EnumRoundTrip, OrderingMode) {
  // Reports print to_string(mode) ("O1-affiliated") and sweep keys use
  // short_mode_name(mode) ("O1"); the parser must take both back.
  for (const ordering::OrderingMode mode : ordering::all_ordering_modes()) {
    EXPECT_EQ(ordering::parse_ordering_mode(ordering::to_string(mode)), mode)
        << ordering::to_string(mode);
    EXPECT_EQ(ordering::parse_ordering_mode(ordering::short_mode_name(mode)),
              mode)
        << ordering::short_mode_name(mode);
  }
  expect_mentions_all(
      error_message(ordering::parse_ordering_mode),
      {"O0", "O0-baseline", "baseline", "O1", "O1-affiliated", "affiliated",
       "O2", "O2-separated", "separated", "chain", "greedy-chain", "hdchain",
       "hd-chain", "bucket", "bucket-sort", "hybrid", "twoflit", "two-flit"});
}

TEST(EnumRoundTrip, EngineChoice) {
  // "auto" plus every backend, through the campaign-level selector.
  for (const char* name : {"auto", "active", "fullscan", "analytical"}) {
    const sim::EngineChoice choice = sim::parse_engine_choice(name);
    EXPECT_EQ(sim::to_string(choice), name);
    EXPECT_EQ(sim::parse_engine_choice(sim::to_string(choice)), choice);
  }
  EXPECT_TRUE(sim::parse_engine_choice("auto").auto_select);
  EXPECT_FALSE(sim::parse_engine_choice("analytical").auto_select);
  expect_mentions_all(error_message(sim::parse_engine_choice),
                      {"auto", "active", "fullscan", "analytical"});
}

TEST(EnumRoundTrip, ApplyEngineChoice) {
  sim::ScenarioSpec spec;
  sim::apply_engine_choice(spec, sim::parse_engine_choice("analytical"));
  EXPECT_FALSE(spec.engine_auto);
  EXPECT_EQ(spec.engine, noc::SimEngine::kAnalytical);
  sim::apply_engine_choice(spec, sim::parse_engine_choice("auto"));
  EXPECT_TRUE(spec.engine_auto);
  // auto keeps the previous engine as the cycle fallback... except an
  // unsteppable analytical fallback, which the runner maps to active-set.
  sim::apply_engine_choice(spec, sim::parse_engine_choice("fullscan"));
  EXPECT_FALSE(spec.engine_auto);
  EXPECT_EQ(spec.engine, noc::SimEngine::kFullScan);
}

}  // namespace
}  // namespace nocbt
