#pragma once
// Shared workload construction for the benchmark harness: the models and
// inputs every table/figure bench draws from. Everything is seeded and
// deterministic.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "dnn/sequential.h"
#include "dnn/tensor.h"

namespace nocbt::benchutil {

/// LeNet-5 with Kaiming-random weights (the paper's "randomly initialized
/// weights" configuration).
[[nodiscard]] dnn::Sequential make_lenet_random(std::uint64_t seed);

/// LeNet-5 actually trained from scratch on the synthetic stroke dataset
/// (the paper's "trained LeNet weights" configuration; see DESIGN.md for
/// the MNIST substitution). Trains in a few seconds; prints nothing.
[[nodiscard]] dnn::Sequential make_lenet_trained(std::uint64_t seed);

/// DarkNetSmall with trained-like (Laplace) weights — training the conv
/// stack would dominate bench time, and only the weight distribution
/// matters for BT (DESIGN.md substitution table).
[[nodiscard]] dnn::Sequential make_darknet_trained_like(std::uint64_t seed);

/// One synthetic 1x32x32 inference input for LeNet.
[[nodiscard]] dnn::Tensor lenet_input(std::uint64_t seed);

/// One synthetic 3x64x64 inference input for DarkNetSmall.
[[nodiscard]] dnn::Tensor darknet_input(std::uint64_t seed);

/// Read a micro bench's `--flag VALUE` arguments: each value lands in the
/// string its flag names, so an empty string means the flag was not given.
/// An argument that is not one of `flags`, or a flag whose value is missing
/// or empty, prints "<binary>: unknown argument '<arg>'" or "<binary>:
/// <flag> needs a value" on stderr and returns false, so the bench can exit
/// 2 before doing any work.
[[nodiscard]] bool parse_flags(
    int argc, char** argv, const char* binary,
    std::initializer_list<std::pair<std::string_view, std::string*>> flags);

}  // namespace nocbt::benchutil
