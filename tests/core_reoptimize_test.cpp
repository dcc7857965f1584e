#include "core/reoptimize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/scenario.hpp"
#include "opt/gradient_projection.hpp"

namespace netmon::core {
namespace {

TEST(WarmStart, ProjectedPointIsFeasible) {
  const GeantScenario s = make_geant_scenario();
  const PlacementProblem problem = make_problem(s);
  // A wildly infeasible "previous" configuration.
  sampling::RateVector previous(s.net.graph.link_count(), 0.5);
  const auto start = warm_start_point(problem, previous);
  EXPECT_TRUE(problem.constraints().feasible(start, 1e-6));
}

TEST(WarmStart, IdenticalProblemConvergesImmediately) {
  const GeantScenario s = make_geant_scenario();
  const PlacementProblem problem = make_problem(s);
  const PlacementSolution cold = solve_placement(problem);
  const PlacementSolution warm = resolve_warm(problem, cold.rates);
  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_LE(warm.iterations, 5);  // already at the optimum
  EXPECT_NEAR(warm.total_utility, cold.total_utility, 1e-9);
}

TEST(WarmStart, FasterAfterSmallPerturbation) {
  const GeantScenario s = make_geant_scenario();
  const PlacementProblem base = make_problem(s);
  const PlacementSolution previous = solve_placement(base);

  // Perturb theta by 10%: the new optimum is near the old one.
  ProblemOptions options;
  options.theta = 110000.0;
  const PlacementProblem perturbed = make_problem(s, options);
  const PlacementSolution cold = solve_placement(perturbed);
  const PlacementSolution warm = resolve_warm(perturbed, previous.rates);

  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_NEAR(warm.total_utility, cold.total_utility,
              1e-7 * (1.0 + std::abs(cold.total_utility)));
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(WarmStart, SurvivesTopologyChange) {
  // After a failure the candidate set itself changes; the warm start must
  // still be feasible and reach the same optimum as a cold solve.
  const GeantScenario before = make_geant_scenario();
  const PlacementProblem base = make_problem(before);
  const PlacementSolution previous = solve_placement(base);

  const topo::LinkId uk_nl = *before.net.graph.find_link("UK", "NL");
  ScenarioOptions failed_scenario;
  failed_scenario.failed.insert(uk_nl);
  const GeantScenario after = make_geant_scenario(failed_scenario);
  ProblemOptions options;
  options.failed.insert(uk_nl);
  const PlacementProblem rerouted(after.net.graph, after.task, after.loads,
                                  options);

  const PlacementSolution cold = solve_placement(rerouted);
  const PlacementSolution warm = resolve_warm(rerouted, previous.rates);
  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_NEAR(warm.total_utility, cold.total_utility,
              1e-7 * (1.0 + std::abs(cold.total_utility)));
}

// The default GEANT problem with alpha lowered until the two most lightly
// loaded candidates together carry only half of theta (at alpha = 1 any
// single GEANT link can carry theta alone). Returns those two candidate
// indices, lightest first, in `lightest`.
PlacementProblem low_alpha_problem(const GeantScenario& s,
                                   std::size_t (&lightest)[2]) {
  const PlacementProblem unit = make_problem(s);
  const std::vector<double>& u = unit.constraints().loads();
  std::vector<std::size_t> order(u.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return u[a] < u[b]; });
  lightest[0] = order[0];
  lightest[1] = order[1];
  ProblemOptions options;
  options.default_alpha = 0.5 * options.theta / (u[order[0]] + u[order[1]]);
  return make_problem(s, options);
}

// Failing a monitor that carries rate in the cold optimum leaves the
// compressed incumbent short of theta. The warm start grows only the
// surviving monitors: every incumbent zero stays zero, where the
// Euclidean projection would lift all of them.
TEST(WarmStart, BudgetShortfallKeepsIncumbentZeros) {
  const GeantScenario s = make_geant_scenario();
  const PlacementProblem base = make_problem(s);
  const PlacementSolution cold_base = solve_placement(base);
  const topo::LinkId cz_sk = *s.net.graph.find_link("CZ", "SK");
  ASSERT_GT(cold_base.rates[cz_sk], 0.0);

  // Loads stay those of the intact network, so the compressed incumbent
  // is short of theta by exactly the failed monitor's budget share.
  ProblemOptions options;
  options.failed.insert(cz_sk);
  const PlacementProblem failed(s.net.graph, s.task, s.loads, options);
  const opt::BoxBudgetConstraints& cons = failed.constraints();
  const std::vector<double> previous = failed.compress(cold_base.rates);
  ASSERT_LT(cons.budget(previous), cons.theta());

  const std::vector<double> start = warm_start_point(failed, cold_base.rates);
  EXPECT_TRUE(cons.feasible(start, 1e-9));
  std::size_t zeros = 0;
  for (std::size_t j = 0; j < start.size(); ++j) {
    if (previous[j] != 0.0) continue;
    ++zeros;
    EXPECT_EQ(start[j], 0.0) << "incumbent zero lifted at candidate " << j;
  }
  EXPECT_GT(zeros, 0u);

  const PlacementSolution warm = resolve_warm(failed, cold_base.rates);
  const PlacementSolution cold = solve_placement(failed);
  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_NEAR(warm.total_utility, cold.total_utility,
              1e-7 * (1.0 + std::abs(cold.total_utility)));

  const std::vector<double> euclidean = cons.project(previous);
  const opt::SolveResult from_euclidean =
      opt::maximize(failed.objective(), cons, {}, &euclidean);
  EXPECT_LE(warm.iterations, from_euclidean.iterations);
}

// A face that cannot carry theta (one lightly loaded monitor left) falls
// back to the Euclidean projection exactly.
TEST(WarmStart, FaceThatCannotCarryThetaFallsBackToProjection) {
  const GeantScenario s = make_geant_scenario();
  std::size_t lightest[2];
  const PlacementProblem problem = low_alpha_problem(s, lightest);
  const opt::BoxBudgetConstraints& cons = problem.constraints();
  const std::size_t j = lightest[0];
  ASSERT_LT(cons.loads()[j] * cons.upper()[j], cons.theta());

  sampling::RateVector previous(s.net.graph.link_count(), 0.0);
  previous[problem.candidates()[j]] = 0.5 * cons.upper()[j];
  const std::vector<double> start = warm_start_point(problem, previous);
  EXPECT_EQ(start, cons.project(problem.compress(previous)));
  EXPECT_TRUE(cons.feasible(start, 1e-9));
}

// When the budget must shrink, rates at alpha stay at alpha and only the
// rest give way; the Euclidean projection would lower them too.
TEST(WarmStart, BudgetExcessKeepsRatesAtAlpha) {
  const GeantScenario s = make_geant_scenario();
  std::size_t saturated[2];
  const PlacementProblem problem = low_alpha_problem(s, saturated);
  const opt::BoxBudgetConstraints& cons = problem.constraints();
  const PlacementSolution cold = solve_placement(problem);

  // Saturate the two most lightly loaded candidates on top of the
  // optimum: the budget overshoots, and they alone carry half of theta.
  sampling::RateVector previous = cold.rates;
  double pinned = 0.0;
  for (const std::size_t j : saturated) {
    previous[problem.candidates()[j]] = cons.upper()[j];
    pinned += cons.loads()[j] * cons.upper()[j];
  }
  ASSERT_LT(pinned, cons.theta());
  const std::vector<double> y = problem.compress(previous);
  ASSERT_GT(cons.budget(y), cons.theta());

  const std::vector<double> start = warm_start_point(problem, previous);
  EXPECT_TRUE(cons.feasible(start, 1e-9));
  const std::vector<double> euclidean = cons.project(y);
  for (const std::size_t j : saturated) {
    EXPECT_EQ(start[j], cons.upper()[j]);
    EXPECT_LT(euclidean[j], cons.upper()[j]);
  }

  const PlacementSolution warm = resolve_warm(problem, previous);
  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_NEAR(warm.total_utility, cold.total_utility,
              1e-7 * (1.0 + std::abs(cold.total_utility)));
}

}  // namespace
}  // namespace netmon::core
