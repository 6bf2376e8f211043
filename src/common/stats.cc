#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace memfp {

double population_stability_index(const std::vector<double>& expected,
                                  const std::vector<double>& actual,
                                  std::size_t bins) {
  if (expected.empty() || actual.empty() || bins == 0) return 0.0;
  double lo = expected.front(), hi = expected.front();
  for (double v : expected) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  for (double v : actual) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) return 0.0;
  const double width = (hi - lo) / static_cast<double>(bins);
  std::vector<double> pe(bins, 0.0), pa(bins, 0.0);
  auto bin_of = [&](double v) {
    auto b = static_cast<std::size_t>((v - lo) / width);
    return std::min(b, bins - 1);
  };
  for (double v : expected) pe[bin_of(v)] += 1.0;
  for (double v : actual) pa[bin_of(v)] += 1.0;
  // Laplace smoothing keeps empty bins from producing infinities.
  const double ne = static_cast<double>(expected.size()) +
                    static_cast<double>(bins) * 1e-4;
  const double na = static_cast<double>(actual.size()) +
                    static_cast<double>(bins) * 1e-4;
  double psi = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    const double e = (pe[b] + 1e-4) / ne;
    const double a = (pa[b] + 1e-4) / na;
    psi += (a - e) * std::log(a / e);
  }
  return psi;
}

}  // namespace memfp
