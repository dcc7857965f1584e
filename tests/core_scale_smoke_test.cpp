// End-to-end smoke of the scale pipeline at test-sized dimensions: a
// hierarchical instance (a few thousand links), gravity fan-out task,
// pod partition, approximate solve with intra-solve parallelism — and a
// certified gap within the tier's 1% target. The 100k+-link instance
// runs the same path in bench/scaling_perf.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/approx.hpp"
#include "core/batch_solver.hpp"
#include "core/partition.hpp"
#include "core/reoptimize.hpp"
#include "core/scale_scenario.hpp"
#include "core/solver.hpp"
#include "runtime/thread_pool.hpp"

namespace netmon::core {
namespace {

ScaleScenarioOptions smoke_options() {
  ScaleScenarioOptions options;
  options.hierarchy.cores = 4;
  options.hierarchy.aggs_per_core = 3;
  options.hierarchy.edges_per_agg = 40;  // 496 nodes, 2,988 links
  options.fanout.od_count = 3000;
  options.fanout.max_sources = 24;
  return options;
}

TEST(ScaleSmoke, ScenarioAssembles) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  EXPECT_EQ(scenario.net.graph.link_count(),
            topo::hierarchy_link_count(smoke_options().hierarchy));
  EXPECT_EQ(scenario.task.ods.size(), scenario.demands.size());
  ASSERT_EQ(scenario.loads.size(), scenario.net.graph.link_count());
  for (double load : scenario.loads) EXPECT_GT(load, 0.0);
  for (double s : scenario.task.expected_packets) EXPECT_GE(s, 2.0);
}

void expect_same_csr(const linalg::SparseCsr& a, const linalg::SparseCsr& b) {
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
  EXPECT_TRUE(std::ranges::equal(a.values(), b.values()));
}

// The scenario routes once and derives its loads and default theta from
// that matrix: both must equal the full per-call computations bit for bit.
TEST(ScaleSmoke, LoadsAndThetaMatchTheFullComputation) {
  const ScaleScenarioOptions options = smoke_options();
  const ScaleScenario scenario = make_scale_scenario(options);
  const routing::RoutingMatrix full = routing::RoutingMatrix::single_path(
      scenario.net.graph, scenario.task.ods);
  expect_same_csr(scenario.routing.csr(), full.csr());
  EXPECT_TRUE(scenario.routing.failed().empty());

  traffic::LinkLoads loads = traffic::background_loads(
      scenario.net.graph, options.background_utilization);
  const traffic::LinkLoads task_loads =
      traffic::link_loads(scenario.net.graph, scenario.demands);
  for (std::size_t i = 0; i < loads.size(); ++i) loads[i] += task_loads[i];
  EXPECT_EQ(scenario.loads, loads);

  double max_budget = 0.0;
  for (topo::LinkId id : full.links_used())
    max_budget += loads[id] * options.interval_sec;
  EXPECT_EQ(default_scale_theta(scenario), 0.01 * max_budget);
}

// A failed-link what-if reroutes the scenario's matrix; the problem must
// be the one full routing around the failure assembles.
TEST(ScaleSmoke, WhatIfProblemMatchesFullRouting) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  const std::vector<topo::LinkId> used = scenario.routing.links_used();
  ProblemOptions options;
  options.theta = default_scale_theta(scenario);
  for (topo::LinkId link : {used.front(), used[used.size() / 2]}) {
    options.failed = {link};
    const PlacementProblem fast = make_problem(scenario, options);
    const PlacementProblem full(scenario.net.graph, scenario.task,
                                scenario.loads, options);
    EXPECT_EQ(fast.candidates(), full.candidates());
    expect_same_csr(fast.routing().csr(), full.routing().csr());
    expect_same_csr(fast.routing().csc(), full.routing().csc());
    expect_same_csr(fast.objective().matrix(), full.objective().matrix());
    EXPECT_EQ(fast.routing().failed(), options.failed);
  }
}

// A default-theta what-if takes both its theta and its routing from the
// scenario's stored matrix instead of routing the graph again: with a
// stored matrix already around one failure, the theta is that matrix's
// and the what-if's routing carries both failures.
TEST(ScaleSmoke, DefaultThetaWhatIfReusesTheStoredRouting) {
  ScaleScenario scenario = make_scale_scenario(smoke_options());
  const double fresh_theta = default_scale_theta(scenario);
  const std::vector<topo::LinkId> used = scenario.routing.links_used();
  const topo::LinkId first = used.front();
  const topo::LinkId second = used.back();
  scenario.routing = routing::RoutingMatrix::reroute(
      scenario.routing, scenario.net.graph, {first});
  const double stored_theta = default_scale_theta(scenario);
  EXPECT_NE(stored_theta, fresh_theta);

  ProblemOptions options;
  options.theta = 0.0;
  options.failed = {second};
  const PlacementProblem problem = make_problem(scenario, options);
  EXPECT_EQ(problem.theta(), stored_theta);
  EXPECT_EQ(problem.routing().failed(), (routing::LinkSet{first, second}));
  expect_same_csr(problem.routing().csr(),
                  routing::RoutingMatrix::single_path(scenario.net.graph,
                                                      scenario.task.ods,
                                                      {first, second})
                      .csr());
}

TEST(ScaleSmoke, ApproxTierCertifiesWithinOnePercent) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  ProblemOptions options;
  options.theta = 0.0;  // default_scale_theta
  const PlacementProblem problem = make_problem(scenario, options);
  EXPECT_GT(problem.candidates().size(), 100u);

  const Partition partition = partition_by_region(problem, scenario.net);
  EXPECT_EQ(partition.group_count(), 4u);  // one group per pod

  runtime::ThreadPool pool(4);
  ApproxOptions approx;
  approx.pool = &pool;
  approx.subsolver.parallel_min_terms = 0;  // exercise nested sharding too
  approx.polish.pool = &pool;
  const ApproxResult result = solve_approx(problem, partition, approx);

  EXPECT_LE(result.certificate.relative_gap, 0.01)
      << "certified gap above the tier's 1% target";
  EXPECT_EQ(result.solution.tier, SolveTier::kApprox);
  EXPECT_GT(result.solution.active_monitors.size(), 0u);
  // Feasibility of the stitched + polished placement.
  EXPECT_NEAR(result.solution.budget_used, problem.theta(),
              1e-6 * problem.theta());
}

// Failing the busiest monitor of the approximate incumbent leaves the
// warm start short of theta; the warm solve must still certify within
// the library's default 2000 iterations (bench/scaling_perf.cpp checks
// the same on the 100k-link instance).
TEST(ScaleSmoke, WarmWhatIfOfIncumbentMonitorCertifiesAtDefaultCap) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  ProblemOptions options;
  options.theta = default_scale_theta(scenario);
  const PlacementProblem problem = make_problem(scenario, options);
  const ApproxResult incumbent = solve_approx(
      problem, partition_by_region(problem, scenario.net));
  const sampling::RateVector& rates = incumbent.solution.rates;
  const topo::LinkId busiest = *std::max_element(
      problem.candidates().begin(), problem.candidates().end(),
      [&](topo::LinkId a, topo::LinkId b) { return rates[a] < rates[b]; });
  ASSERT_GT(rates[busiest], 0.0);

  options.failed = {busiest};
  const PlacementProblem failed = make_problem(scenario, options);
  const PlacementSolution warm = resolve_warm(failed, rates);
  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_LE(warm.iterations, opt::SolverOptions{}.max_iterations);
  EXPECT_NEAR(warm.budget_used, failed.theta(), 1e-6 * failed.theta());
}

// Every failure of an incumbent monitor starts the solver off the
// optimum's face: the incumbent carries small rates on candidates that
// are zero at the new optimum. Bulk activation pins those in a few steps
// instead of one per iteration. Activating one bound per iteration, the
// worst of these what-ifs took 1,208 iterations (median 723); with bulk
// activation it takes 422 (median 300).
TEST(ScaleSmoke, WarmMonitorFailureWhatIfsCertifyInBoundedIterations) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  ProblemOptions options;
  options.theta = default_scale_theta(scenario);
  const PlacementProblem problem = make_problem(scenario, options);
  const ApproxResult incumbent = solve_approx(
      problem, partition_by_region(problem, scenario.net));
  const sampling::RateVector& rates = incumbent.solution.rates;
  std::vector<topo::LinkId> monitors;
  for (topo::LinkId link : problem.candidates()) {
    if (rates[link] > 0.0) monitors.push_back(link);
  }
  ASSERT_GT(monitors.size(), 100u);

  // Every 24th monitor: a deterministic spread over the candidate list.
  opt::SolverWorkspace workspace;
  for (std::size_t i = 0; i < monitors.size(); i += 24) {
    options.failed = {monitors[i]};
    const PlacementProblem failed = make_problem(scenario, options);
    const PlacementSolution warm =
        resolve_warm(failed, rates, {}, &workspace);
    EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal) << monitors[i];
    EXPECT_LE(warm.iterations, 700) << monitors[i];
    EXPECT_NEAR(warm.budget_used, failed.theta(), 1e-6 * failed.theta());
  }
}

TEST(ScaleSmoke, BatchSolverRoutesLargeInstancesToTheApproxTier) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  ProblemOptions po;
  po.theta = 0.0;
  const PlacementProblem problem = make_problem(scenario, po);
  const Partition partition = partition_by_region(problem, scenario.net);

  BatchOptions batch;
  batch.threads = 2;
  batch.tier.approx_min_candidates = 64;  // force routing at test scale
  const BatchSolver solver(batch);

  BatchItem item;
  item.problem = &problem;
  item.partition = &partition;
  const auto solutions =
      solver.solve_items(std::span<const BatchItem>(&item, 1));
  ASSERT_EQ(solutions.size(), 1u);
  EXPECT_EQ(solutions[0].tier, SolveTier::kApprox);
  EXPECT_GT(solutions[0].certified_upper_bound,
            solutions[0].total_utility - 1e-9);

  // Below the threshold the same item solves exactly.
  BatchOptions exact_batch;
  exact_batch.threads = 2;
  exact_batch.tier.approx_min_candidates = 1u << 30;
  const BatchSolver exact_solver(exact_batch);
  const auto exact = exact_solver.solve_items(
      std::span<const BatchItem>(&item, 1));
  EXPECT_EQ(exact[0].tier, SolveTier::kExact);
  EXPECT_EQ(exact[0].certified_gap, 0.0);
}

}  // namespace
}  // namespace netmon::core
