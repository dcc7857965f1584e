#include "opt/kkt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace netmon::opt {

KktReport compute_kkt(std::span<const double> g, std::span<const double> u,
                      const std::vector<BoundState>& bounds, double tol) {
  KktReport report;
  compute_kkt(g, u, bounds, tol, report);
  return report;
}

void compute_kkt(std::span<const double> g, std::span<const double> u,
                 const std::vector<BoundState>& bounds, double tol,
                 KktReport& report) {
  const std::size_t n = g.size();
  NETMON_REQUIRE(u.size() == n && bounds.size() == n,
                 "KKT input dimension mismatch");
  report.lambda = 0.0;
  report.worst = 0.0;
  report.violating.clear();
  report.violating.reserve(n);  // one allocation per report, then none
  report.nu.assign(n, 0.0);
  report.mu.assign(n, 0.0);

  // lambda: least-squares over the free subspace (g_j = lambda u_j).
  double gu = 0.0, uu = 0.0;
  bool any_free = false;
  for (std::size_t j = 0; j < n; ++j) {
    if (bounds[j] == BoundState::kFree) {
      gu += g[j] * u[j];
      uu += u[j] * u[j];
      any_free = true;
    }
  }
  if (any_free && uu > 0.0) {
    report.lambda = gu / uu;
  } else {
    // No free coordinate: lambda must satisfy
    //   lambda >= g_j/u_j for every lower-active j, and
    //   lambda <= g_j/u_j for every upper-active j.
    // Use the midpoint of the implied interval; when the interval is
    // empty the extreme constraints end up with negative multipliers and
    // get released.
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      const double ratio = g[j] / u[j];
      if (bounds[j] == BoundState::kAtLower) lo = std::max(lo, ratio);
      else hi = std::min(hi, ratio);
    }
    if (std::isinf(lo) && std::isinf(hi)) report.lambda = 0.0;
    else if (std::isinf(lo)) report.lambda = hi;
    else if (std::isinf(hi)) report.lambda = lo;
    else report.lambda = 0.5 * (lo + hi);
  }

  report.satisfied = true;
  for (std::size_t j = 0; j < n; ++j) {
    double m = 0.0;
    if (bounds[j] == BoundState::kAtLower) {
      m = report.lambda * u[j] - g[j];
      report.nu[j] = m;
    } else if (bounds[j] == BoundState::kAtUpper) {
      m = g[j] - report.lambda * u[j];
      report.mu[j] = m;
    } else {
      continue;
    }
    report.worst = std::min(report.worst, m);
    const double scale = std::max(1.0, std::abs(report.lambda) * u[j]);
    if (m < -tol * scale) {
      report.satisfied = false;
      report.violating.push_back(j);
    }
  }
}

}  // namespace netmon::opt
