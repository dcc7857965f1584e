#include "opt/line_search.hpp"

#include <algorithm>
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

namespace {

/// phi'(t) = g and phi''(t) = h at one probe point.
struct Probe {
  double t = 0.0;
  double g = 0.0;
  double h = 0.0;
};

/// Zero of the cubic Hermite interpolant of phi' through probes a and b,
/// by Newton's method on the cubic from b (its first iterate is the
/// plain Newton step from b). Two probes with their slopes model phi'
/// to third order where one probe models it to first, so the zero lands
/// far closer to the maximizer than the Newton step.
double hermite_zero(const Probe& a, const Probe& b) {
  const double dt = b.t - a.t;
  const double ha = dt * a.h, hb = dt * b.h;  // slopes per unit of u
  double u = 1.0;
  for (int i = 0; i < 4; ++i) {
    const double u2 = u * u, u3 = u2 * u;
    const double p = (2.0 * u3 - 3.0 * u2 + 1.0) * a.g +
                     (u3 - 2.0 * u2 + u) * ha +
                     (3.0 * u2 - 2.0 * u3) * b.g + (u3 - u2) * hb;
    const double dp = (6.0 * u2 - 6.0 * u) * a.g +
                      (3.0 * u2 - 4.0 * u + 1.0) * ha +
                      (6.0 * u - 6.0 * u2) * b.g + (3.0 * u2 - 2.0 * u) * hb;
    if (!(dp * dt < 0.0)) break;  // left the decreasing branch
    u -= p / dp;
  }
  return a.t + u * dt;
}

/// Where to probe next inside the bracket (lo, hi): the zero of the two-
/// probe model through `prev` and `cur`, else the Newton step from `cur`,
/// else the midpoint. A probe with h >= 0 has no usable slope.
double model_zero(const Probe& prev, const Probe& cur, double lo, double hi) {
  const auto inside = [lo, hi](double t) { return t > lo && t < hi; };
  if (cur.h < 0.0) {
    if (prev.h < 0.0) {
      const double zero = hermite_zero(prev, cur);
      if (inside(zero)) return zero;
    }
    const double newton = cur.t - cur.g / cur.h;
    if (inside(newton)) return newton;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

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

  // Bracket [lo, hi] with phi'(lo) > 0 > phi'(hi). gain_lo is a proven
  // lower bound on phi(lo) - phi(0).
  double lo = 0.0, hi = t_max;
  double gain_lo = 0.0;
  // The probe before the current one, for the two-probe model. The first
  // step models phi' from t = 0 (phi''(0) comes from the restriction) and
  // the t_max probe; the bisection ablation has no slopes (h = 0).
  Probe prev{0.0, derivative_at_zero, 0.0};
  double t = 0.5 * t_max;
  if (options.newton) {
    prev.h = phi.second_at_zero();
    t = model_zero({t_max, at_max.first, at_max.second}, prev, lo, hi);
  }

  const double curvature = kWolfeSigma * derivative_at_zero;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    result.iters = iter + 1;
    const Phi::Derivs at = phi.derivs(t);
    // Concavity: phi(t) >= phi(lo) + (t - lo) phi'(t) >= phi(0) + gain.
    const double gain = gain_lo + (t - lo) * at.first;
    const bool flat = std::abs(at.first) <= curvature;
    if (flat && gain >= 0.0) break;  // strong Wolfe: accept t
    if (at.first > 0.0) {
      lo = t;
      gain_lo = gain;
    } else {
      hi = t;
    }
    if (hi - lo <= 1e-16 * std::max(1.0, t_max)) {
      t = 0.5 * (lo + hi);
      break;
    }
    const Probe cur{t, at.first, at.second};
    double next = 0.5 * (lo + hi);  // bisection, the safeguard
    if (options.newton) {
      const double zero = model_zero(prev, cur, lo, hi);
      // A flat descending probe whose ascent is unproven steps past the
      // zero to its mirror image, on the ascending side.
      const double step = flat ? 2.0 * zero - t : zero;
      if (step > lo && step < hi) next = step;
    }
    prev = cur;
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
