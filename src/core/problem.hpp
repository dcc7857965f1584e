// Assembly of the paper's optimization problem (§III) from network data.
//
// Inputs: topology, measurement task F, per-link loads U (pkt/s), system
// capacity theta (packets per interval) and per-link rate caps alpha.
// The problem identifies the candidate monitor set — the links traversed
// by F that are monitorable (and optionally restricted, e.g. "UK links
// only" in §V-C) — and exposes the objective and constraints in the
// compressed candidate index space the optimizer works in.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/task.hpp"
#include "opt/constraints.hpp"
#include "opt/objective.hpp"
#include "sampling/effective_rate.hpp"
#include "traffic/link_load.hpp"

namespace netmon::core {

/// Options controlling problem assembly.
struct ProblemOptions {
  /// System capacity theta: maximum packets sampled network-wide per
  /// measurement interval (the paper's Table I uses 100,000 per 5 min).
  double theta = 100000.0;
  /// Default maximum sampling rate per link (paper: alpha_i = 1, i.e. no
  /// upper limit beyond the rate being a probability).
  double default_alpha = 1.0;
  /// Restrict the candidate monitors to these links (empty = no
  /// restriction). Used for the "UK links only" comparison (§V-C).
  std::vector<topo::LinkId> restrict_to;
  /// Failed links (routing recomputes around them).
  routing::LinkSet failed;
  /// Split OD pairs over equal-cost multipaths instead of a single path.
  bool ecmp = false;
};

/// The assembled placement problem.
class PlacementProblem {
 public:
  /// `loads` are per-link packet rates (pkt/s) including all cross
  /// traffic; they must be positive on every candidate link. Routes the
  /// task's OD pairs as `options` says (failed links, ECMP).
  PlacementProblem(const topo::Graph& graph, MeasurementTask task,
                   traffic::LinkLoads loads, ProblemOptions options = {});

  /// Same, over a prebuilt routing matrix of the task's OD pairs (in task
  /// order, over `graph`); `options.failed` and `options.ecmp` are not
  /// consulted — `matrix` already embodies them.
  PlacementProblem(const topo::Graph& graph, MeasurementTask task,
                   traffic::LinkLoads loads, ProblemOptions options,
                   routing::RoutingMatrix matrix);

  /// The routing matrix of the task's OD pairs.
  const routing::RoutingMatrix& routing() const noexcept { return matrix_; }

  /// Candidate links, i.e. the optimizer's variable space, sorted by id.
  const std::vector<topo::LinkId>& candidates() const noexcept {
    return candidates_;
  }

  /// Constraints in candidate space: u_j = U_j * interval (packets per
  /// interval), bounds alpha_j, budget theta.
  const opt::BoxBudgetConstraints& constraints() const noexcept {
    return *constraints_;
  }

  /// Objective in candidate space: sum_k M_k(rho_k).
  const opt::SeparableConcaveObjective& objective() const noexcept {
    return *objective_;
  }

  /// Per-OD utilities (shared, for evaluating arbitrary rate vectors).
  const std::vector<std::shared_ptr<const opt::Concave1d>>& utilities()
      const noexcept {
    return utilities_;
  }

  /// Expands a candidate-space vector into a full link-indexed rate
  /// vector (zero on non-candidate links).
  sampling::RateVector expand(std::span<const double> x) const;

  /// Compresses a full link-indexed rate vector into candidate space.
  std::vector<double> compress(const sampling::RateVector& rates) const;

  const MeasurementTask& task() const noexcept { return task_; }
  const traffic::LinkLoads& loads() const noexcept { return loads_; }
  const topo::Graph& graph() const noexcept { return graph_; }
  double theta() const noexcept { return options_.theta; }
  double interval_sec() const noexcept { return task_.interval_sec; }

  /// Budget (packets per interval) consumed by a full rate vector.
  double budget_used(const sampling::RateVector& rates) const;

 private:
  const topo::Graph& graph_;
  MeasurementTask task_;
  traffic::LinkLoads loads_;
  ProblemOptions options_;
  routing::RoutingMatrix matrix_;
  std::vector<topo::LinkId> candidates_;
  std::vector<std::optional<std::size_t>> candidate_index_;  // link -> idx
  std::vector<std::shared_ptr<const opt::Concave1d>> utilities_;
  std::unique_ptr<opt::SeparableConcaveObjective> objective_;
  std::unique_ptr<opt::BoxBudgetConstraints> constraints_;
};

}  // namespace netmon::core
