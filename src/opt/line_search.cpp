#include "opt/line_search.hpp"

#include <cmath>

#include "util/error.hpp"

namespace netmon::opt {

GenericPhi::GenericPhi(const Objective& f, std::span<const double> p,
                       std::span<const double> d, linalg::EvalWorkspace& ws)
    : f_(f), p_(p), d_(d), ws_(ws) {
  NETMON_REQUIRE(p.size() == d.size(), "dimension mismatch");
}

Phi::Derivs GenericPhi::derivs(double t) {
  const std::span<double> point = ws_.cols_a(p_.size());
  const std::span<double> grad = ws_.cols_b(p_.size());
  for (std::size_t j = 0; j < p_.size(); ++j) point[j] = p_[j] + t * d_[j];
  f_.gradient(point, grad, ws_);
  double first = 0.0;
  for (std::size_t j = 0; j < d_.size(); ++j) first += grad[j] * d_[j];
  const double second = f_.directional_second(point, d_, ws_);
  return {first, second};
}

double GenericPhi::second_at_zero() {
  // Form the t = 0 trial point exactly as derivs() would (p + 0*d), so
  // the curvature matches the historical evaluation bit for bit.
  const std::span<double> point = ws_.cols_a(p_.size());
  for (std::size_t j = 0; j < p_.size(); ++j) point[j] = p_[j] + 0.0 * d_[j];
  return f_.directional_second(point, d_, ws_);
}

LineSearchResult maximize_phi(Phi& phi, double t_max,
                              const LineSearchOptions& options,
                              double derivative_at_zero) {
  NETMON_REQUIRE(t_max > 0.0, "line search needs t_max > 0");
  LineSearchResult result;

  if (derivative_at_zero <= 0.0) {
    // Not an ascent direction. Near convergence the projected gradient is
    // pure cancellation noise and its inner product with the gradient can
    // round below zero; report "no progress" and let the caller run the
    // KKT certificate instead of failing.
    return result;
  }

  const Phi::Derivs at_max = phi.derivs(t_max);
  if (at_max.first >= 0.0) {
    // Still ascending at the boundary: the constraint blocks us.
    result.t = t_max;
    result.hit_boundary = true;
    result.first_at_max = at_max.first;
    result.second_at_max = at_max.second;
    return result;
  }

  // Bracket [lo, hi] with phi'(lo) > 0 > phi'(hi).
  double lo = 0.0, hi = t_max;
  double t = t_max;
  if (options.newton) {
    const double second0 = phi.second_at_zero();
    t = second0 < 0.0 ? std::min(t_max, -derivative_at_zero / second0)
                      : 0.5 * t_max;
  } else {
    t = 0.5 * t_max;
  }

  const double target = options.tol * derivative_at_zero;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    result.iters = iter + 1;
    const Phi::Derivs at = phi.derivs(t);
    if (std::abs(at.first) <= target) break;
    if (at.first > 0.0) lo = t;
    else hi = t;
    double next;
    if (options.newton && at.second < 0.0) {
      next = t - at.first / at.second;
      if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);  // safeguard
    } else {
      next = 0.5 * (lo + hi);
    }
    if (hi - lo <= 1e-16 * std::max(1.0, t_max)) {
      t = 0.5 * (lo + hi);
      break;
    }
    t = next;
  }
  result.t = t;
  result.hit_boundary = false;
  return result;
}

LineSearchResult maximize_along(const Objective& f, std::span<const double> p,
                                std::span<const double> d, double t_max,
                                const LineSearchOptions& options) {
  linalg::EvalWorkspace ws;
  return maximize_along(f, p, d, t_max, options, ws);
}

LineSearchResult maximize_along(const Objective& f, std::span<const double> p,
                                std::span<const double> d, double t_max,
                                const LineSearchOptions& options,
                                linalg::EvalWorkspace& ws) {
  NETMON_REQUIRE(t_max > 0.0, "line search needs t_max > 0");
  GenericPhi phi(f, p, d, ws);
  // Without a caller-provided phi'(0), compute it with one gradient
  // evaluation at the t = 0 trial point (the historical evaluation).
  const std::span<double> point = ws.cols_a(p.size());
  const std::span<double> grad = ws.cols_b(p.size());
  for (std::size_t j = 0; j < p.size(); ++j) point[j] = p[j] + 0.0 * d[j];
  f.gradient(point, grad, ws);
  double first = 0.0;
  for (std::size_t j = 0; j < d.size(); ++j) first += grad[j] * d[j];
  return maximize_phi(phi, t_max, options, first);
}

}  // namespace netmon::opt
