// Gradient projection solver for concave maximization over box bounds
// plus one budget equality — the paper's algorithm (§IV-D).
//
// At every iteration the gradient is projected onto the subspace spanned
// by the currently active constraints; the point moves along the
// (optionally Polak-Ribiere-mixed) projected direction until the
// objective is maximized on the segment (safeguarded Newton 1-D search,
// stopped at a strong-Wolfe step, line_search.hpp) or an inactive
// constraint is hit. When the projected gradient
// vanishes, the KKT multipliers decide: all non-negative => certified
// global optimum (the objective is concave and the feasible set convex);
// otherwise the active constraints with negative multipliers are
// released and the search continues.
//
// Both active-set moves work in bulk:
// - Activation: a blocked step extrapolates the unblocked maximizer
//   along the direction with one Newton step from the line search's last
//   probe, t_ext = t_max - phi'/phi'', and pins every free coordinate
//   whose bound lies before t_ext, provided the remaining free
//   coordinates can absorb the budget this moves and stay inside their
//   boxes, and the resulting point is better than the iterate.
//   Otherwise only the blocking bound is activated.
// - Release (Rosen's drop test): every iteration computes the multipliers
//   on the current face and releases the bounds whose multiplier is below
//   -||s|| (s the projected gradient) before it searches, instead of
//   waiting for s to vanish.
// The certificate is unchanged: kOptimal only when s vanishes and every
// multiplier is >= -kkt_tol. The search only decides how far each step
// goes, so an inexact step never weakens it.
//
// The O(n) reductions of an iteration (projection, norms, phi'(0), the
// Polak-Ribiere ratio) and the line-search probe sums run in a fixed
// lane order (linalg/lane_sum.hpp) on the calling thread, so the iterate
// sequence is the same at every pool size and SIMD level.
#pragma once

#include <functional>
#include <vector>

#include "obs/trace.hpp"
#include "opt/constraints.hpp"
#include "opt/fused_eval.hpp"
#include "opt/kkt.hpp"
#include "opt/line_search.hpp"
#include "opt/objective.hpp"

namespace netmon::opt {

/// Solver knobs. Defaults follow the paper (iteration cap 2000).
struct SolverOptions {
  /// Hard cap on iterations; the paper observes 98.6% of instances
  /// converge below 2000.
  int max_iterations = 2000;
  /// Projected-gradient norm tolerance (relative to the gradient norm).
  /// The achievable floor is set by cancellation in g - lambda*u; 1e-9
  /// relative is conservative for double precision.
  double grad_tol = 1e-9;
  /// Multiplier negativity tolerance for the KKT certificate.
  double kkt_tol = 1e-8;
  /// Mix the previous direction per Polak-Ribiere (paper §IV-D: avoids
  /// the zigzag path of pure projected gradients). Off = plain projection
  /// (ablation).
  bool polak_ribiere = true;
  /// 1-D search configuration (Newton by default; bisection ablation).
  /// Both stop at the strong-Wolfe exit (kWolfeSigma).
  LineSearchOptions line_search;
  /// Use the fused evaluation path when the objective is separable:
  /// value + gradient + per-term derivatives from one matrix traversal,
  /// inner products rho = R p maintained incrementally across steps, and
  /// line-search probes that never touch the matrix. Off = the generic
  /// per-virtual path, byte-for-byte the historical iteration (ablation
  /// and bit-identity reference).
  bool use_fused = true;
  /// Cooperative cancellation hook, polled between iterations with the
  /// number of completed iterations. Returning true stops the solve with
  /// SolveStatus::kCancelled and the best-so-far (feasible) point. The
  /// serving layer uses this for per-request deadlines and iteration
  /// budgets; when unset the iteration path is byte-for-byte unchanged.
  std::function<bool(int iterations)> should_stop;
  /// Optional iteration trace sink (obs/trace.hpp). When set, the solver
  /// appends one record per iteration plus a final summary record whose
  /// KKT fields equal the SolveResult report. Recording is lock-free and
  /// allocation-free, so the hot loop stays zero-allocation; when null
  /// the iterate sequence is bit-identical to the untraced solve (the
  /// trace only reads solver state, never steers it).
  obs::SolverTrace* trace = nullptr;
  /// Metric counter handles bumped once per solve (iterations, release
  /// events, completions, cancellations). Default handles are detached
  /// no-ops costing one branch each at solve exit.
  obs::SolverCounters counters;
  /// Intra-solve parallelism: when set and the objective is separable
  /// with at least `parallel_min_terms` terms, the per-iteration
  /// evaluation work — inner-product spmv, fused term kernels, gradient
  /// scatter, line-search probes, projection/update writes — is sharded
  /// across this pool with deterministic chunking. Order-sensitive
  /// reductions run in lane order on the calling thread, so the iterate
  /// sequence (and hence the SolveResult) is bit-identical to the serial
  /// solve at every thread count; the knob changes throughput only. Borrowed; must outlive the
  /// solve. Safe to use from tasks already running on the same pool
  /// (TaskGroup waits help instead of blocking).
  runtime::ThreadPool* pool = nullptr;
  /// Term-count threshold below which `pool` is ignored: paper-scale
  /// instances (GEANT: dozens of terms) keep the historical
  /// single-threaded fast path with zero added overhead.
  std::size_t parallel_min_terms = 8192;
};

/// Why the solver stopped.
enum class SolveStatus {
  /// KKT certificate holds: global optimum.
  kOptimal,
  /// Iteration cap reached before certification.
  kIterationLimit,
  /// SolverOptions::should_stop asked for an early exit (deadline or
  /// iteration budget). The returned point is feasible but uncertified.
  kCancelled,
};

/// Solver outcome and diagnostics.
struct SolveResult {
  std::vector<double> p;
  double value = 0.0;
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Iterations executed (one per search direction, as in the paper).
  int iterations = 0;
  /// Number of times active constraints with negative multipliers had to
  /// be released, at stationarity or early by the drop test (paper §IV-D
  /// reports 1.64 +- 1.17 on their data).
  int release_events = 0;
  /// Number of blocked steps that activated several bounds at once (bulk
  /// activation); a step that activates only its blocking bound is not
  /// counted.
  int activation_events = 0;
  /// Line searches run (every iteration that searched along a direction
  /// with phi'(0) > 0), how many of them ended inside the segment, and
  /// the phi'/phi'' probes all of them spent. A blocked search costs one
  /// probe, an interior one the t_max probe plus its Newton steps.
  int line_searches = 0;
  int interior_searches = 0;
  int line_search_probes = 0;
  /// Budget multiplier lambda at termination.
  double lambda = 0.0;
  /// Most negative bound multiplier at termination (>= -tol if optimal).
  double worst_multiplier = 0.0;
  /// Final active-set classification of every coordinate.
  std::vector<BoundState> bounds;
};

/// All iteration scratch of one maximize() call: the objective-evaluation
/// workspace plus the solver's own per-iteration vectors and the KKT
/// report. Pass the same instance to repeated solves (warm starts, batch
/// fan-out) and the iteration loop performs no heap allocations after the
/// first call has grown the buffers. Not shareable between threads.
struct SolverWorkspace {
  linalg::EvalWorkspace eval;
  std::vector<double> g;        // gradient
  std::vector<double> s;        // projected gradient
  std::vector<double> d;        // search direction
  std::vector<double> s_prev;   // previous projected gradient (PR mixing)
  std::vector<double> d_prev;   // previous direction (PR mixing)
  std::vector<double> dir_tmp;  // re-projection scratch; p before a bulk step
  std::vector<BoundState> bounds_saved;  // active set before a bulk step
  std::vector<double> x;        // maintained inner products (fused path)
  // Line-search probes (fused path). Keeps its term partition across
  // the searches of one solve; maximize() invalidates it on entry.
  SeparableRestriction restriction;
  KktReport kkt;
};

/// Maximizes `f` over `constraints`. `start` overrides the default
/// feasible starting point (must itself be feasible). `workspace`, when
/// given, supplies all iteration scratch (reused across calls); when
/// null a call-local workspace is used.
SolveResult maximize(const Objective& f,
                     const BoxBudgetConstraints& constraints,
                     const SolverOptions& options = {},
                     const std::vector<double>* start = nullptr,
                     SolverWorkspace* workspace = nullptr);

}  // namespace netmon::opt
