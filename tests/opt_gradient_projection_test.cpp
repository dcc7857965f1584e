#include "opt/gradient_projection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/utility.hpp"
#include "obs/trace.hpp"
#include "opt/projected_ascent.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::opt {
namespace {

std::shared_ptr<const Concave1d> log_u(double eps) {
  return std::make_shared<core::LogUtility>(eps);
}

TEST(GradientProjection, TwoVariableAnalyticOptimum) {
  // max log(1+p0/0.1) + log(1+p1/0.1) s.t. p0 + 2 p1 = 0.5.
  // Interior KKT: eps+p1 = (eps+p0)/2 -> p* = (0.3, 0.1).
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.3, 1e-7);
  EXPECT_NEAR(r.p[1], 0.1, 1e-7);
  EXPECT_NEAR(r.lambda, 1.0 / 0.4, 1e-6);
}

TEST(GradientProjection, CornerSolutionDeactivatesMonitor) {
  // Term 1 has negligible marginal utility: all budget goes to p0.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.01), log_u(1000.0)});
  const BoxBudgetConstraints c({1.0, 1.0}, {1.0, 1.0}, 0.2);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.2, 1e-7);
  EXPECT_NEAR(r.p[1], 0.0, 1e-9);
  EXPECT_EQ(r.bounds[1], BoundState::kAtLower);
}

TEST(GradientProjection, UpperBoundBinds) {
  // Cheap high-utility variable capped by alpha; remainder spills over.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.001), log_u(10.0)});
  const BoxBudgetConstraints c({1.0, 1.0}, {0.1, 1.0}, 0.5);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.1, 1e-9);
  EXPECT_NEAR(r.p[1], 0.4, 1e-7);
  EXPECT_EQ(r.bounds[0], BoundState::kAtUpper);
}

TEST(GradientProjection, SharedMonitorCoversTwoTerms) {
  // Variable 2 helps both terms: it should dominate the solution.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}, {2, 1.0}},
                                             {{1, 1.0}, {2, 1.0}}};
  const SeparableConcaveObjective f(
      3, std::move(rows), {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, 0.3);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[2], 0.3, 1e-7);
  EXPECT_NEAR(r.p[0], 0.0, 1e-9);
  EXPECT_NEAR(r.p[1], 0.0, 1e-9);
}

TEST(GradientProjection, DeterministicAcrossRuns) {
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}, {1, 0.5}},
                                             {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.05), log_u(0.2)});
  const BoxBudgetConstraints c({3.0, 7.0}, {1.0, 1.0}, 2.0);
  const SolveResult a = maximize(f, c);
  const SolveResult b = maximize(f, c);
  ASSERT_EQ(a.p.size(), b.p.size());
  for (std::size_t j = 0; j < a.p.size(); ++j)
    EXPECT_DOUBLE_EQ(a.p[j], b.p[j]);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(GradientProjection, IterationLimitReported) {
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  SolverOptions options;
  options.max_iterations = 1;
  const SolveResult r = maximize(f, c, options);
  EXPECT_EQ(r.status, SolveStatus::kIterationLimit);
  EXPECT_EQ(r.iterations, 1);
}

TEST(GradientProjection, StartPointOverride) {
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  const std::vector<double> start{0.5, 0.0};
  const SolveResult r = maximize(f, c, {}, &start);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.3, 1e-6);
  const std::vector<double> infeasible{1.0, 1.0};
  EXPECT_THROW(maximize(f, c, {}, &infeasible), netmon::Error);
}

TEST(GradientProjection, FractionalCoefficientsEcmpStyle) {
  // ECMP rows carry fractional coefficients; the optimum must still
  // certify and match the reference solver.
  SeparableConcaveObjective::SparseRows rows{
      {{0, 0.5}, {1, 0.5}},          // split across two branches
      {{0, 0.25}, {1, 0.25}, {2, 1.0}},
  };
  const SeparableConcaveObjective f(3, std::move(rows),
                                    {log_u(0.05), log_u(0.05)});
  const BoxBudgetConstraints c({1e4, 2e4, 5e3}, {1.0, 1.0, 1.0}, 3e3);
  const SolveResult main = maximize(f, c);
  EXPECT_EQ(main.status, SolveStatus::kOptimal);
  const ProjectedAscentResult ref = maximize_reference(f, c);
  EXPECT_NEAR(main.value, ref.value, 1e-4 * (1.0 + std::abs(main.value)));
  EXPECT_GE(main.value, ref.value - 1e-6);
}

TEST(GradientProjection, ObjectiveWithOffsets) {
  // Offsets (from the exact-rate linearization) must flow through the
  // solver unchanged: shifting a row constant does not move the optimum
  // of a log utility... it does, but the solve must still certify and
  // beat the reference.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)},
                                    {0.02, -0.005});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  const SolveResult main = maximize(f, c);
  EXPECT_EQ(main.status, SolveStatus::kOptimal);
  const ProjectedAscentResult ref = maximize_reference(f, c);
  EXPECT_GE(main.value, ref.value - 1e-8);
}

// ---------------------------------------------------------------------
// Bulk active-set moves
// ---------------------------------------------------------------------

// A warm start carrying 200 small positive rates that are zero at the
// optimum (the incumbent of a what-if, off the optimum's face). The
// solver activates a bound only where a line search runs into it, so one
// activation per iteration would need 200+ iterations; a blocked step
// pins every bound it would cross before the unblocked maximizer.
TEST(GradientProjection, SpuriousWarmRatesAreActivatedInBulk) {
  constexpr std::size_t kGood = 10, kSpurious = 200;
  constexpr std::size_t n = kGood + kSpurious;
  SeparableConcaveObjective::SparseRows rows(n);
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  std::vector<double> u(n), alpha(n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    rows[j].emplace_back(j, 1.0);
    // Good coordinates have a steep utility, the spurious ones a nearly
    // flat one: at the optimum the budget goes to the good ones only.
    utilities.push_back(log_u(j < kGood ? 0.05 : 100.0));
    u[j] = 1.0 + 0.5 * static_cast<double>(j % 5);
  }
  const SeparableConcaveObjective f(n, rows, utilities);
  std::vector<double> start(n, 0.0);
  double spurious_budget = 0.0;
  for (std::size_t j = kGood; j < n; ++j) {
    start[j] = 1e-4 * static_cast<double>(1 + j % 7);
    spurious_budget += u[j] * start[j];
  }
  double good_load = 0.0;
  for (std::size_t j = 0; j < kGood; ++j) good_load += u[j];
  for (std::size_t j = 0; j < kGood; ++j) start[j] = 0.1;
  const double theta = 0.1 * good_load + spurious_budget;
  const BoxBudgetConstraints c(u, alpha, theta);

  const SolveResult r = maximize(f, c, {}, &start);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_LE(r.iterations, 50);
  EXPECT_GE(r.activation_events, 1);
  EXPECT_TRUE(c.feasible(r.p, 1e-9));
  for (std::size_t j = kGood; j < n; ++j) EXPECT_EQ(r.p[j], 0.0) << j;

  const ProjectedAscentResult ref = maximize_reference(f, c);
  const double scale = 1.0 + std::abs(r.value);
  EXPECT_GE(r.value, ref.value - 1e-8 * scale);
  EXPECT_NEAR(r.value, ref.value, 1e-6 * scale);
}

// The first blocked step would pin the two losers behind the blocking
// one, but the budget they still carry must go to the other free
// coordinates, and four of those sit just below alpha: they cannot
// absorb it. The step then activates only its blocking bound, and the
// point stays feasible.
TEST(GradientProjection, BulkActivationFallsBackWhenTheFaceCannotAbsorb) {
  // 0-1: strong, 2-5: near alpha and nearly saturated, 6-8: losers.
  constexpr std::size_t n = 9;
  SeparableConcaveObjective::SparseRows rows(n);
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  for (std::size_t j = 0; j < n; ++j) {
    rows[j].emplace_back(j, 1.0);
    utilities.push_back(log_u(j < 2 ? 0.1 : j < 6 ? 1.0 : 100.0));
  }
  const SeparableConcaveObjective f(n, rows, utilities);
  const std::vector<double> start{0.3,   0.3,   0.999, 0.999, 0.999,
                                  0.999, 0.010, 0.05,  0.09};
  double theta = 0.0;
  for (double v : start) theta += v;
  const BoxBudgetConstraints c(std::vector<double>(n, 1.0),
                               std::vector<double>(n, 1.0), theta);

  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  const SolveResult r = maximize(f, c, options, &start);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_TRUE(c.feasible(r.p, 1e-9));
  const auto records = trace.snapshot();
  ASSERT_GE(records.size(), 2u);
  EXPECT_GT(records[0].step, 0.0);
  EXPECT_EQ(records[0].active_set, 1u);  // the blocking bound only

  const ProjectedAscentResult ref = maximize_reference(f, c);
  EXPECT_GE(r.value, ref.value - 1e-8 * (1.0 + std::abs(r.value)));
}

// A start with active bounds whose multipliers are strongly negative
// while the projected gradient on its face is not yet small: the drop
// test releases them in the first iteration, which still takes a step
// (a release at stationarity takes none), and the final certificate
// holds.
TEST(GradientProjection, StronglyWrongBoundsAreReleasedEarly) {
  constexpr std::size_t n = 6;
  SeparableConcaveObjective::SparseRows rows(n);
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  for (std::size_t j = 0; j < n; ++j) {
    rows[j].emplace_back(j, 1.0);
    utilities.push_back(log_u(j < 2 ? 1.0 : 0.01));
  }
  const SeparableConcaveObjective f(n, rows, utilities);
  // Two weak coordinates carry the budget; the four steep ones sit at 0.
  const std::vector<double> start{0.2, 0.3, 0.0, 0.0, 0.0, 0.0};
  const BoxBudgetConstraints c(std::vector<double>(n, 1.0),
                               std::vector<double>(n, 1.0), 0.5);

  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  const SolveResult r = maximize(f, c, options, &start);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_GE(r.release_events, 1);
  EXPECT_GE(r.worst_multiplier, -options.kkt_tol);
  EXPECT_TRUE(c.feasible(r.p, 1e-9));
  const auto records = trace.snapshot();
  ASSERT_GE(records.size(), 2u);
  EXPECT_GT(records[0].step, 0.0);
  EXPECT_LT(records[0].active_set, 4u);

  const ProjectedAscentResult ref = maximize_reference(f, c);
  const double scale = 1.0 + std::abs(r.value);
  EXPECT_GE(r.value, ref.value - 1e-8 * scale);
  EXPECT_NEAR(r.value, ref.value, 1e-6 * scale);
}

// A random instance on which an extrapolated bulk step loses value: one
// blocked step pins coordinates far beyond t_max and the objective
// drops, the drop test releases them again, and without the requirement
// that a bulk point beat the iterate the two moves repeat until the
// iteration cap.
TEST(GradientProjection, BulkStepThatLosesValueIsRejected) {
  Rng rng(77275);
  const std::size_t n = 3 + rng.below(60);
  const std::size_t terms = 2 + rng.below(2 * n);
  SeparableConcaveObjective::SparseRows rows(terms);
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  for (std::size_t k = 0; k < terms; ++k) {
    const std::size_t touches = 1 + rng.below(4);
    for (std::size_t t = 0; t < touches; ++t) {
      const std::size_t col = rng.below(n);
      bool seen = false;
      for (auto& [c2, v] : rows[k]) seen = seen || c2 == col;
      if (!seen)
        rows[k].emplace_back(col,
                             rng.bernoulli(0.7) ? 1.0 : rng.uniform(0.2, 1.0));
    }
    if (rng.bernoulli(0.5)) {
      utilities.push_back(std::make_shared<core::SreUtility>(
          rng.uniform(1e-5, 0.3)));
    } else {
      utilities.push_back(log_u(rng.uniform(0.001, 0.5)));
    }
  }
  std::vector<double> u(n), alpha(n);
  double max_budget = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    u[j] = rng.uniform(1e3, 1e6);
    alpha[j] = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.3, 1.0);
    max_budget += u[j] * alpha[j];
  }
  const SeparableConcaveObjective f(n, rows, utilities);
  const BoxBudgetConstraints c(u, alpha,
                               max_budget * rng.uniform(0.001, 0.6));

  for (const bool fused : {true, false}) {
    SolverOptions options;
    options.use_fused = fused;
    const SolveResult r = maximize(f, c, options);
    EXPECT_EQ(r.status, SolveStatus::kOptimal) << "fused " << fused;
    EXPECT_TRUE(c.feasible(r.p, 1e-9));
    const ProjectedAscentResult ref = maximize_reference(f, c);
    EXPECT_GE(r.value, ref.value - 1e-8 * (1.0 + std::abs(r.value)));
  }
}

// ---------------------------------------------------------------------
// Property sweep: on random instances the active-set solver must certify
// KKT and match the (provably convergent) projected-ascent reference.
// ---------------------------------------------------------------------
class RandomInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomInstanceTest, MatchesReferenceSolver) {
  Rng rng(1000 + GetParam());
  const std::size_t n = 3 + rng.below(8);       // 3..10 variables
  const std::size_t terms = 2 + rng.below(2 * n);

  SeparableConcaveObjective::SparseRows rows(terms);
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  for (std::size_t k = 0; k < terms; ++k) {
    const std::size_t touches = 1 + rng.below(3);
    for (std::size_t t = 0; t < touches; ++t) {
      const std::size_t col = rng.below(n);
      bool seen = false;
      for (auto& [c2, v] : rows[k]) seen = seen || c2 == col;
      // Mix binary and fractional (ECMP-style) coefficients.
      if (!seen)
        rows[k].emplace_back(col,
                             rng.bernoulli(0.7) ? 1.0 : rng.uniform(0.2, 1.0));
    }
    if (rng.bernoulli(0.5)) {
      utilities.push_back(std::make_shared<core::SreUtility>(
          rng.uniform(1e-5, 0.3)));
    } else {
      utilities.push_back(log_u(rng.uniform(0.001, 0.5)));
    }
  }

  std::vector<double> u(n), alpha(n);
  double max_budget = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    u[j] = rng.uniform(1e3, 1e6);
    alpha[j] = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.3, 1.0);
    max_budget += u[j] * alpha[j];
  }
  const double theta = max_budget * rng.uniform(0.001, 0.6);

  const SeparableConcaveObjective f(n, rows, utilities);
  const BoxBudgetConstraints c(u, alpha, theta);

  SolverOptions options;
  options.max_iterations = 5000;
  const SolveResult main = maximize(f, c, options);
  EXPECT_EQ(main.status, SolveStatus::kOptimal) << "instance " << GetParam();
  EXPECT_TRUE(c.feasible(main.p, 1e-6));

  ProjectedAscentOptions ref_options;
  ref_options.max_iterations = 20000;
  const ProjectedAscentResult ref = maximize_reference(f, c, ref_options);

  // The certified optimum must not be beaten by the reference, and the
  // two must agree closely in value.
  const double scale = 1.0 + std::abs(main.value);
  EXPECT_GE(main.value, ref.value - 1e-5 * scale)
      << "instance " << GetParam();
  EXPECT_NEAR(main.value, ref.value, 2e-3 * scale)
      << "instance " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomInstanceTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace netmon::opt
