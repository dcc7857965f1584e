// Warm-started re-optimization.
//
// The paper's operational story is continuous: traffic shifts, links
// fail, and the placement is recomputed. Successive problems are close to
// each other, so starting the gradient projection from the previous rates
// (projected onto the new feasible set) converges in far fewer iterations
// than the cold start — the ablation bench quantifies this.
//
// The projection keeps the previous placement's active set
// (BoxBudgetConstraints::project_face): when a failure takes budget away
// from the incumbent, its zero rates stay zero and only its monitors
// grow. The solver releases wrongly active bounds in one event but
// activates bounds only where a blocked line search crosses them, so
// lifting every zero to a small positive rate, as the Euclidean
// projection does, costs many iterations (DESIGN.md §8).
#pragma once

#include <span>
#include <vector>

#include "core/batch_solver.hpp"
#include "core/problem.hpp"
#include "core/solver.hpp"

namespace netmon::core {

/// Projects `previous` rates (full link-id space, e.g. from the placement
/// that was running before the change) onto the new problem's feasible
/// set {sum u p = theta, 0 <= p <= alpha} in candidate space, keeping
/// their active set: zero rates stay zero while the budget grows, rates
/// at alpha stay at alpha while it shrinks, and only when that face
/// cannot carry theta is the start the plain Euclidean projection.
/// Returns the feasible candidate-space start.
std::vector<double> warm_start_point(const PlacementProblem& problem,
                                     const sampling::RateVector& previous);

/// Solves the problem starting from warm_start_point(problem, previous).
/// `workspace` as in solve_placement: shared iteration scratch for
/// repeated calls.
PlacementSolution resolve_warm(const PlacementProblem& problem,
                               const sampling::RateVector& previous,
                               const opt::SolverOptions& options = {},
                               opt::SolverWorkspace* workspace = nullptr);

/// What-if fan-out: warm-solves every candidate problem (failure
/// scenarios, perturbed loads, alternative budgets) from the same
/// currently-running rates, across the thread pool. result[i] matches
/// problems[i]; outputs are bit-identical at every thread count because
/// each solve is a pure function of (problem, previous).
std::vector<PlacementSolution> resolve_warm_batch(
    std::span<const PlacementProblem* const> problems,
    const sampling::RateVector& previous, const BatchOptions& options = {});

}  // namespace netmon::core
