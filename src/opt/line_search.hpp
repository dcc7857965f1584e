// One-dimensional maximization along a search direction (paper §IV-D).
//
// The solver moves from p along direction d until either the objective is
// maximized on the segment or an inactive constraint is hit. The paper
// uses Newton's method for the 1-D search (fast, needs C^2); a bisection
// fallback doubles as the safeguard and as the ablation variant.
//
// The search is inexact: an interior step is accepted as soon as it meets
// the strong-Wolfe conditions for maximization,
//   |phi'(t)| <= kWolfeSigma * phi'(0)    (curvature)
//   phi(t) >= phi(0)                      (ascent),
// instead of being polished until phi'(t) vanishes. Ascent is proved from
// derivatives alone, by concavity: phi lies below its tangents, so
// phi(t) >= phi(lo) + (t - lo) phi'(t) for the last ascending probe lo,
// and phi(lo) - phi(0) is bounded the same way probe by probe. On the
// ascending side (phi'(t) >= 0) the bound holds trivially; a descending
// probe that meets the curvature condition but not the bound steps to
// the mirror image of itself about the model maximizer, on the ascending
// side.
//
// Steps come from a two-probe model: the cubic Hermite interpolant of
// phi' through the last two probes (values and slopes), whose zero is far
// closer to the maximizer than a Newton step from one probe. The first
// step models phi' from t = 0 (phi'(0) and phi''(0) are in hand) and the
// t_max probe that ruled out a blocked step. A model step outside the
// bracket falls back to Newton, then to bisection. An interior search
// typically costs the t_max probe plus one or two steps.
//
// The search itself only ever sees the restriction phi(t) = f(p + t d)
// through the Phi interface: GenericPhi evaluates it via the objective's
// gradient (any Objective), while opt::SeparableRestriction (fused_eval.
// hpp) evaluates separable objectives in one pass over the active terms
// with no matrix traversal per probe. phi'(0) is threaded in by the
// caller — the solver already holds the gradient at p, so the search
// never re-evaluates the objective at t = 0.
#pragma once

#include <span>

#include "opt/objective.hpp"

namespace netmon::opt {

/// Curvature constant sigma of the strong-Wolfe exit. Polak-Ribiere+
/// keeps its global convergence guarantee (Gilbert-Nocedal) for any
/// sigma < 1/4; this one is small enough that an inexact step leaves the
/// iteration count where the exact search had it (DESIGN.md §7).
inline constexpr double kWolfeSigma = 1e-5;

/// Line-search configuration.
struct LineSearchOptions {
  /// Use Newton steps (safeguarded by a shrinking bracket); when false,
  /// pure bisection on the directional derivative.
  bool newton = true;
  /// Maximum Newton/bisection iterations. The search also stops when the
  /// strong-Wolfe conditions hold or the bracket is tiny.
  int max_iters = 80;
};

/// Outcome of a line search.
struct LineSearchResult {
  /// Chosen step in [0, t_max].
  double t = 0.0;
  /// Whether the step ran into t_max (a constraint blocks the ascent).
  bool hit_boundary = false;
  /// phi'(t_max) and phi''(t_max) when hit_boundary (the probe that
  /// decided it); 0 otherwise. The solver extrapolates the unblocked
  /// maximizer from them to activate several bounds in one step.
  double first_at_max = 0.0;
  double second_at_max = 0.0;
  /// Newton/bisection probes after the one at t_max: a search with
  /// phi'(0) > 0 evaluates derivs() 1 + iters times (iters = 0 when it is
  /// blocked).
  int iters = 0;
};

/// A 1-D restriction phi(t) = f(p + t d), evaluated by its derivatives.
class Phi {
 public:
  struct Derivs {
    double first = 0.0;
    double second = 0.0;
  };

  virtual ~Phi() = default;

  /// phi'(t) and phi''(t) in one evaluation.
  virtual Derivs derivs(double t) = 0;

  /// phi''(0) alone — the Newton search's first step needs only the
  /// curvature at 0 (phi'(0) comes from the caller). Override when this
  /// is cheaper than a full derivs(0).
  virtual double second_at_zero() { return derivs(0.0).second; }
};

/// Generic restriction over any Objective: each probe forms the trial
/// point in ws.cols_a, evaluates the gradient into ws.cols_b and takes
/// the directional second derivative — exactly the historical line-
/// search evaluation, unchanged bit for bit.
class GenericPhi final : public Phi {
 public:
  GenericPhi(const Objective& f, std::span<const double> p,
             std::span<const double> d, linalg::EvalWorkspace& ws);

  Derivs derivs(double t) override;
  double second_at_zero() override;

 private:
  const Objective& f_;
  std::span<const double> p_, d_;
  linalg::EvalWorkspace& ws_;
};

/// Maximizes phi over t in [0, t_max]. `derivative_at_zero` is phi'(0),
/// which every caller already has (the solver as dot(g, d)); when it is
/// <= 0 the direction is not an ascent direction (at numerical
/// convergence the projected gradient is cancellation noise) and the
/// search returns t = 0 without evaluating phi at all.
LineSearchResult maximize_phi(Phi& phi, double t_max,
                              const LineSearchOptions& options,
                              double derivative_at_zero);

/// Maximizes phi(t) = f(p + t d) over t in [0, t_max].
///
/// Preconditions: f concave along d, t_max > 0. When d is not an ascent
/// direction (phi'(0) <= 0), returns t = 0. Computes phi'(0) itself via
/// one gradient evaluation; callers that already hold the gradient at p
/// should use maximize_phi directly and skip that evaluation.
LineSearchResult maximize_along(const Objective& f, std::span<const double> p,
                                std::span<const double> d, double t_max,
                                const LineSearchOptions& options = {});

/// Workspace variant: the trial point and gradient live in the cols_a /
/// cols_b slots of `ws`, and f is evaluated through its workspace
/// overloads — zero allocations once `ws` is warm. The same `ws` may be
/// (and in the solver is) the one threaded through the objective: the
/// objective only touches rows_* slots.
LineSearchResult maximize_along(const Objective& f, std::span<const double> p,
                                std::span<const double> d, double t_max,
                                const LineSearchOptions& options,
                                linalg::EvalWorkspace& ws);

}  // namespace netmon::opt
