#include "opt/constraints.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace netmon::opt {

BoxBudgetConstraints::BoxBudgetConstraints(std::vector<double> u,
                                           std::vector<double> alpha,
                                           double theta)
    : u_(std::move(u)), alpha_(std::move(alpha)), theta_(theta) {
  NETMON_REQUIRE(!u_.empty(), "constraint set needs >= 1 variable");
  NETMON_REQUIRE(u_.size() == alpha_.size(), "loads/bounds size mismatch");
  double max_budget = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) {
    NETMON_REQUIRE(u_[j] > 0.0, "link loads must be positive");
    NETMON_REQUIRE(alpha_[j] > 0.0 && alpha_[j] <= 1.0,
                   "alpha bounds must lie in (0,1]");
    max_budget += u_[j] * alpha_[j];
  }
  NETMON_REQUIRE(theta_ > 0.0, "theta must be positive");
  NETMON_REQUIRE(theta_ <= max_budget * (1.0 + 1e-12),
                 "theta exceeds the samplable volume sum(u*alpha)");
}

double BoxBudgetConstraints::budget(std::span<const double> p) const {
  NETMON_REQUIRE(p.size() == u_.size(), "dimension mismatch");
  double sum = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) sum += u_[j] * p[j];
  return sum;
}

bool BoxBudgetConstraints::feasible(std::span<const double> p,
                                    double tol) const {
  if (p.size() != u_.size()) return false;
  for (std::size_t j = 0; j < u_.size(); ++j) {
    if (p[j] < -tol || p[j] > alpha_[j] + tol) return false;
  }
  return std::abs(budget(p) - theta_) <= tol * std::max(1.0, theta_);
}

std::vector<double> BoxBudgetConstraints::initial_point() const {
  double max_budget = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) max_budget += u_[j] * alpha_[j];
  const double t = std::min(1.0, theta_ / max_budget);
  std::vector<double> p(u_.size());
  for (std::size_t j = 0; j < u_.size(); ++j) p[j] = t * alpha_[j];
  return p;
}

std::vector<double> BoxBudgetConstraints::project(
    std::span<const double> y) const {
  return project_pinned(y, Pin::kNone);
}

std::vector<double> BoxBudgetConstraints::project_face(
    std::span<const double> y) const {
  NETMON_REQUIRE(y.size() == u_.size(), "dimension mismatch");
  // Budget of clamp(y), and what each face can still carry: with the
  // zeros pinned the budget reaches at most sum over y_j > 0 of u alpha;
  // with the alpha coordinates pinned it falls to at least their sum.
  double clamped = 0.0, grow_cap = 0.0, shrink_floor = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) {
    clamped += u_[j] * std::clamp(y[j], 0.0, alpha_[j]);
    if (y[j] > 0.0) grow_cap += u_[j] * alpha_[j];
    if (y[j] >= alpha_[j]) shrink_floor += u_[j] * alpha_[j];
  }
  if (clamped < theta_ && grow_cap > theta_)
    return project_pinned(y, Pin::kLower);
  if (clamped > theta_ && shrink_floor < theta_)
    return project_pinned(y, Pin::kUpper);
  return project(y);
}

std::vector<double> BoxBudgetConstraints::project_pinned(
    std::span<const double> y, Pin pin) const {
  NETMON_REQUIRE(y.size() == u_.size(), "dimension mismatch");
  auto clamped = [&](double lambda, std::size_t j) {
    if (pin == Pin::kLower && y[j] <= 0.0) return 0.0;
    if (pin == Pin::kUpper && y[j] >= alpha_[j]) return alpha_[j];
    return std::clamp(y[j] - lambda * u_[j], 0.0, alpha_[j]);
  };
  auto budget_at = [&](double lambda) {
    double sum = 0.0;
    for (std::size_t j = 0; j < u_.size(); ++j)
      sum += u_[j] * clamped(lambda, j);
    return sum;
  };
  // budget_at is non-increasing in lambda; bracket the root.
  double lo = 0.0, hi = 0.0;
  {
    // Expand until budget_at(lo) >= theta >= budget_at(hi).
    double span = 1.0;
    while (budget_at(lo) < theta_) {
      lo -= span;
      span *= 2.0;
      NETMON_REQUIRE(span < 1e30, "projection bracket failure (low)");
    }
    span = 1.0;
    while (budget_at(hi) > theta_) {
      hi += span;
      span *= 2.0;
      NETMON_REQUIRE(span < 1e30, "projection bracket failure (high)");
    }
  }
  // Bisect until the *budget* matches theta tightly; a tolerance on
  // lambda alone is not scale-free (d budget / d lambda ~ sum u^2 can be
  // enormous when loads are packets-per-interval).
  double lambda = 0.5 * (lo + hi);
  for (int iter = 0; iter < 500; ++iter) {
    lambda = 0.5 * (lo + hi);
    const double b = budget_at(lambda);
    if (std::abs(b - theta_) <= 1e-13 * std::max(1.0, theta_)) break;
    if (b >= theta_) lo = lambda;
    else hi = lambda;
  }
  std::vector<double> p(u_.size());
  for (std::size_t j = 0; j < u_.size(); ++j) p[j] = clamped(lambda, j);
  // Distribute any residual drift over the coordinates strictly inside
  // their bounds so the equality holds to full precision.
  const double drift = theta_ - budget(p);
  if (drift != 0.0) {
    double uu = 0.0;
    for (std::size_t j = 0; j < u_.size(); ++j) {
      if (p[j] > 0.0 && p[j] < alpha_[j]) uu += u_[j] * u_[j];
    }
    if (uu > 0.0) {
      for (std::size_t j = 0; j < u_.size(); ++j) {
        if (p[j] > 0.0 && p[j] < alpha_[j])
          p[j] = std::clamp(p[j] + drift * u_[j] / uu, 0.0, alpha_[j]);
      }
    }
  }
  return p;
}

}  // namespace netmon::opt
