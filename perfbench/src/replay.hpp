// Layer replay: times calls into each layer's public functions on one
// workload's world shape (node count, area, radio range, mobility, event
// table capacity and topic shape, all read from a job config of that
// workload).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

/// (metric name, value) in a fixed order. Times are medians over repeated
/// batches; allocation counts are exact counts from the first batch, whose
/// inputs depend only on `seed`.
[[nodiscard]] std::vector<std::pair<std::string, double>> run_replay(
    const frugal::core::ExperimentConfig& world, std::uint64_t seed,
    double budget_s);

}  // namespace perfbench
