// Distribution statistics for the monitoring stage.
#pragma once

#include <cstddef>
#include <vector>

namespace memfp {

/// Population Stability Index between two distributions over shared bins.
/// Standard drift measure: <0.1 stable, 0.1-0.25 moderate, >0.25 major shift.
double population_stability_index(const std::vector<double>& expected,
                                  const std::vector<double>& actual,
                                  std::size_t bins);

}  // namespace memfp
