#include "core/problem.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/utility.hpp"
#include "util/error.hpp"

namespace netmon::core {

namespace {

routing::RoutingMatrix build_matrix(const topo::Graph& graph,
                                    const MeasurementTask& task,
                                    const ProblemOptions& options) {
  return options.ecmp
             ? routing::RoutingMatrix::ecmp(graph, task.ods, options.failed)
             : routing::RoutingMatrix::single_path(graph, task.ods,
                                                   options.failed);
}

}  // namespace

PlacementProblem::PlacementProblem(const topo::Graph& graph,
                                   MeasurementTask task,
                                   traffic::LinkLoads loads,
                                   ProblemOptions options)
    : PlacementProblem(graph, task, std::move(loads), options,
                       build_matrix(graph, task, options)) {}

PlacementProblem::PlacementProblem(const topo::Graph& graph,
                                   MeasurementTask task,
                                   traffic::LinkLoads loads,
                                   ProblemOptions options,
                                   routing::RoutingMatrix matrix)
    : graph_(graph),
      task_(std::move(task)),
      loads_(std::move(loads)),
      options_(std::move(options)),
      matrix_(std::move(matrix)) {
  NETMON_REQUIRE(task_.ods.size() == task_.expected_packets.size(),
                 "task OD/size vectors must be aligned");
  NETMON_REQUIRE(!task_.ods.empty(), "task must contain >= 1 OD pair");
  NETMON_REQUIRE(matrix_.ods() == task_.ods &&
                     matrix_.link_count() == graph_.link_count(),
                 "routing matrix must route the task's OD pairs over graph");
  NETMON_REQUIRE(loads_.size() == graph_.link_count(),
                 "one load per link required");
  NETMON_REQUIRE(task_.interval_sec > 0.0, "interval must be positive");

  // Candidate monitors: links of L (traversed by F), monitorable, loaded,
  // and inside the restriction set when one is given.
  std::unordered_set<topo::LinkId> allowed(options_.restrict_to.begin(),
                                           options_.restrict_to.end());
  for (topo::LinkId id : matrix_.links_used()) {
    if (!graph_.link(id).monitorable) continue;
    if (!allowed.empty() && !allowed.count(id)) continue;
    NETMON_REQUIRE(loads_[id] > 0.0,
                   "candidate link with zero load: " + graph_.link_name(id));
    candidates_.push_back(id);
  }
  NETMON_REQUIRE(!candidates_.empty(),
                 "no candidate monitor can observe the task");

  candidate_index_.assign(graph_.link_count(), std::nullopt);
  for (std::size_t j = 0; j < candidates_.size(); ++j)
    candidate_index_[candidates_[j]] = j;

  // Per-OD utilities: c_k = 1 / expected interval size, optionally scaled
  // by the task's priority weights.
  NETMON_REQUIRE(task_.weights.empty() ||
                     task_.weights.size() == task_.ods.size(),
                 "one weight per OD pair required when weights are given");
  utilities_.reserve(task_.ods.size());
  for (std::size_t k = 0; k < task_.expected_packets.size(); ++k) {
    const double s = task_.expected_packets[k];
    NETMON_REQUIRE(s >= 2.0, "expected OD size must be >= 2 packets");
    std::shared_ptr<const opt::Concave1d> u =
        std::make_shared<SreUtility>(1.0 / s);
    if (!task_.weights.empty() && task_.weights[k] != 1.0) {
      u = std::make_shared<WeightedUtility>(std::move(u), task_.weights[k]);
    }
    utilities_.push_back(std::move(u));
  }

  // Objective rows in candidate space (non-candidate links dropped: no
  // monitor can be activated there), built straight into a CSR arena.
  linalg::CsrBuilder builder(candidates_.size());
  builder.reserve(task_.ods.size(), matrix_.csr().nnz());
  for (std::size_t k = 0; k < task_.ods.size(); ++k) {
    for (const auto& [link, frac] : matrix_.row(k)) {
      if (candidate_index_[link]) builder.push(*candidate_index_[link], frac);
    }
    builder.finish_row();
  }
  objective_ = std::make_unique<opt::SeparableConcaveObjective>(
      builder.build(), utilities_);

  // Constraints: budget in packets per interval.
  std::vector<double> u(candidates_.size());
  std::vector<double> alpha(candidates_.size());
  for (std::size_t j = 0; j < candidates_.size(); ++j) {
    u[j] = loads_[candidates_[j]] * task_.interval_sec;
    alpha[j] = options_.default_alpha;
  }
  constraints_ = std::make_unique<opt::BoxBudgetConstraints>(
      std::move(u), std::move(alpha), options_.theta);
}

sampling::RateVector PlacementProblem::expand(
    std::span<const double> x) const {
  NETMON_REQUIRE(x.size() == candidates_.size(),
                 "candidate-space dimension mismatch");
  sampling::RateVector rates(graph_.link_count(), 0.0);
  for (std::size_t j = 0; j < candidates_.size(); ++j)
    rates[candidates_[j]] = x[j];
  return rates;
}

std::vector<double> PlacementProblem::compress(
    const sampling::RateVector& rates) const {
  NETMON_REQUIRE(rates.size() == graph_.link_count(),
                 "full rate vector dimension mismatch");
  std::vector<double> x(candidates_.size());
  for (std::size_t j = 0; j < candidates_.size(); ++j)
    x[j] = rates[candidates_[j]];
  return x;
}

double PlacementProblem::budget_used(const sampling::RateVector& rates) const {
  NETMON_REQUIRE(rates.size() == graph_.link_count(),
                 "full rate vector dimension mismatch");
  double sum = 0.0;
  for (topo::LinkId id = 0; id < rates.size(); ++id)
    sum += rates[id] * loads_[id] * task_.interval_sec;
  return sum;
}

}  // namespace netmon::core
