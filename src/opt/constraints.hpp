// The feasible set of the placement problem (paper §III, eqs. 3-5):
//   sum_j u_j p_j = theta      (capacity used in full, §IV-B eq. 8)
//   0 <= p_j <= alpha_j        (per-link sampling-rate bounds)
// with u_j > 0 the link loads and theta the system capacity.
#pragma once

#include <span>
#include <vector>

namespace netmon::opt {

/// Box bounds plus a single weighted-sum equality.
class BoxBudgetConstraints {
 public:
  /// Requires u_j > 0, alpha_j in (0,1], theta in (0, sum u_j alpha_j].
  BoxBudgetConstraints(std::vector<double> u, std::vector<double> alpha,
                       double theta);

  std::size_t dimension() const noexcept { return u_.size(); }
  const std::vector<double>& loads() const noexcept { return u_; }
  const std::vector<double>& upper() const noexcept { return alpha_; }
  double theta() const noexcept { return theta_; }

  /// sum_j u_j p_j.
  double budget(std::span<const double> p) const;

  /// Whether p satisfies all constraints within tolerance.
  bool feasible(std::span<const double> p, double tol = 1e-9) const;

  /// A feasible starting point on the budget plane: the uniform scaling
  /// p_j = t alpha_j with t = theta / sum u_j alpha_j (paper §IV-D starts
  /// "arbitrarily on the plane defined by the active constraint (5)").
  std::vector<double> initial_point() const;

  /// Euclidean projection onto the feasible set (used by the reference
  /// solver): p_j = clamp(y_j - lambda u_j, 0, alpha_j) with lambda found
  /// by bisection so the budget holds.
  std::vector<double> project(std::span<const double> y) const;

  /// Warm-start projection: the Euclidean projection of `y` onto the face
  /// of y's active set. When clamp(y, 0, alpha) is short of theta the
  /// budget must grow, and every coordinate with y_j <= 0 stays at 0;
  /// when it is over theta the budget must shrink, and every coordinate
  /// with y_j >= alpha_j stays at alpha_j. When that face cannot carry
  /// theta (or clamp(y) already meets it), returns project(y).
  ///
  /// The gradient projection solver releases wrongly active bounds in
  /// one event, but activates bounds only where a line search runs into
  /// them (several per blocked step at best), so a start with too many
  /// active bounds is cheap and a start with too few is not: project()
  /// would lift every incumbent zero to -lambda u_j > 0 and leave the
  /// solver to push them all back.
  std::vector<double> project_face(std::span<const double> y) const;

 private:
  /// Which bound coordinates project_pinned holds fixed.
  enum class Pin { kNone, kLower, kUpper };
  /// The bisection behind project() and project_face(): coordinates
  /// pinned by `pin` (kLower: y_j <= 0 held at 0; kUpper: y_j >= alpha_j
  /// held at alpha_j) stay put, the rest are clamp(y_j - lambda u_j).
  /// Requires the free coordinates to be able to meet theta.
  std::vector<double> project_pinned(std::span<const double> y,
                                     Pin pin) const;

  std::vector<double> u_;
  std::vector<double> alpha_;
  double theta_;
};

}  // namespace netmon::opt
