// Fused evaluation layer: bit-identity of the scalar and SIMD kernel
// paths across topologies and utility pivot regimes, fused vs separate
// entry points, the line-search restriction, and the incremental
// inner-product (rho) maintenance.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "core/utility.hpp"
#include "linalg/lane_sum.hpp"
#include "opt/fused_eval.hpp"
#include "opt/gradient_projection.hpp"
#include "opt/line_search.hpp"
#include "opt/objective.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace netmon::opt {
namespace {

// Restores the SIMD dispatch flag on scope exit so tests that sweep it
// cannot leak state into each other.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(simd_dispatch_enabled()) {}
  ~DispatchGuard() { set_simd_dispatch(saved_); }

 private:
  bool saved_;
};

// A random separable objective: `n` variables, `terms` rows with 1-5
// nonzeros each, utility families mixed per `mix` (0 = all SRE — one
// maximal batch run, the SIMD-dispatch shape; 1 = SRE/log/detect/weighted
// interleaved — many short runs plus scalar-fallback runs).
struct RandomObjective {
  std::unique_ptr<SeparableConcaveObjective> f;
  std::vector<double> p;  // a random interior point

  RandomObjective(std::uint64_t seed, std::size_t n, std::size_t terms,
                  int mix) {
    Rng rng(seed);
    SeparableConcaveObjective::SparseRows rows(terms);
    std::vector<std::shared_ptr<const Concave1d>> utilities;
    for (std::size_t k = 0; k < terms; ++k) {
      const std::size_t nnz = 1 + rng.below(5);
      for (std::size_t i = 0; i < nnz; ++i)
        rows[k].emplace_back(rng.below(n), rng.uniform(0.1, 2.0));
      // c spans (0, 0.5]: pivots x0 = 3c/(1+c) from near 0 to 1, so the
      // interior points below land on both sides of the pivot.
      const double c = rng.uniform(0.01, 0.5);
      if (mix == 0) {
        utilities.push_back(std::make_shared<core::SreUtility>(c));
      } else {
        switch (rng.below(4)) {
          case 0:
            utilities.push_back(std::make_shared<core::SreUtility>(c));
            break;
          case 1:
            utilities.push_back(
                std::make_shared<core::LogUtility>(rng.uniform(0.01, 1.0)));
            break;
          case 2:
            utilities.push_back(std::make_shared<core::DetectionUtility>(
                2.0 + rng.uniform(0.0, 50.0)));
            break;
          default:
            utilities.push_back(std::make_shared<core::WeightedUtility>(
                std::make_shared<core::SreUtility>(c),
                rng.uniform(0.5, 3.0)));
        }
      }
    }
    f = std::make_unique<SeparableConcaveObjective>(n, std::move(rows),
                                                    std::move(utilities));
    for (std::size_t j = 0; j < n; ++j) p.push_back(rng.uniform(0.0, 0.4));
  }
};

void expect_fused_matches_virtuals(const SeparableConcaveObjective& f,
                                   std::span<const double> p) {
  const std::vector<double> x = f.inner(p);
  const std::size_t m = f.term_count();
  std::vector<double> v(m), m1(m), m2(m);
  f.fused_terms(x, v, m1, m2);
  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_EQ(v[k], f.utility(k).value(x[k])) << "M @" << k;
    EXPECT_EQ(m1[k], f.utility(k).deriv(x[k])) << "M' @" << k;
    EXPECT_EQ(m2[k], f.utility(k).second(x[k])) << "M'' @" << k;
  }
}

TEST(FusedKernels, BatchedTermsMatchScalarVirtualsExactly) {
  DispatchGuard guard;
  for (const bool simd : {false, true}) {
    set_simd_dispatch(simd);
    const RandomObjective uniform(7, 40, 300, 0);
    expect_fused_matches_virtuals(*uniform.f, uniform.p);
    const RandomObjective mixed(11, 25, 200, 1);
    expect_fused_matches_virtuals(*mixed.f, mixed.p);
  }
}

TEST(FusedKernels, PivotRegimesBothSidesBitIdentical) {
  DispatchGuard guard;
  // One utility per c, probed strictly below and strictly above its
  // pivot — both select arms of the branch-free kernels.
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  SeparableConcaveObjective::SparseRows rows;
  std::vector<double> p;
  for (const double c : {0.02, 0.1, 0.25, 0.4, 0.5}) {
    const double x0 = core::SreUtility::pivot_for(c);
    for (const double x : {0.25 * x0, 0.9 * x0, x0, 1.1 * x0, 2.0 * x0}) {
      utilities.push_back(std::make_shared<core::SreUtility>(c));
      rows.push_back({{p.size(), 1.0}});
      p.push_back(std::min(x, 1.0));
    }
  }
  const SeparableConcaveObjective f(p.size(), std::move(rows),
                                    std::move(utilities));
  const std::size_t m = f.term_count();
  std::vector<double> v_s(m), m1_s(m), m2_s(m), v_v(m), m1_v(m), m2_v(m);
  set_simd_dispatch(false);
  f.fused_terms(p, v_s, m1_s, m2_s);
  expect_fused_matches_virtuals(f, p);
  set_simd_dispatch(true);
  f.fused_terms(p, v_v, m1_v, m2_v);
  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_EQ(v_s[k], v_v[k]) << "value @" << k;
    EXPECT_EQ(m1_s[k], m1_v[k]) << "deriv @" << k;
    EXPECT_EQ(m2_s[k], m2_v[k]) << "second @" << k;
  }
}

TEST(FusedKernels, ScalarVsSimdSweepAcrossTopologies) {
  DispatchGuard guard;
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const auto& geant = problem.objective();
  const std::vector<double> geant_p = problem.constraints().initial_point();

  struct Case {
    const SeparableConcaveObjective* f;
    std::span<const double> p;
  };
  const RandomObjective r1(21, 60, 500, 0);
  const RandomObjective r2(22, 30, 250, 1);
  for (const Case& c : {Case{&geant, geant_p}, Case{r1.f.get(), r1.p},
                        Case{r2.f.get(), r2.p}}) {
    linalg::EvalWorkspace ws;
    std::vector<double> g_s(c.f->dimension()), g_v(c.f->dimension());
    set_simd_dispatch(false);
    const auto fe_s = c.f->fused_eval(c.p, g_s, ws);
    const double v_s = fe_s.value;
    set_simd_dispatch(true);
    const auto fe_v = c.f->fused_eval(c.p, g_v, ws);
    EXPECT_EQ(v_s, fe_v.value);
    for (std::size_t j = 0; j < g_s.size(); ++j)
      EXPECT_EQ(g_s[j], g_v[j]) << "gradient @" << j;
  }
}

TEST(FusedEval, MatchesSeparateEntryPointsBitwise) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const auto& f = problem.objective();
  const std::vector<double> p = problem.constraints().initial_point();

  linalg::EvalWorkspace ws_fused, ws_ref;
  std::vector<double> g_fused(f.dimension()), g_ref(f.dimension());
  const auto fe = f.fused_eval(p, g_fused, ws_fused);
  EXPECT_EQ(fe.value, f.value(p, ws_ref));
  f.gradient(p, g_ref, ws_ref);
  for (std::size_t j = 0; j < g_ref.size(); ++j)
    EXPECT_EQ(g_fused[j], g_ref[j]) << "gradient @" << j;

  // The per-term spans feed the directional second derivative without
  // another term pass: compare against the separate entry point.
  std::vector<double> s(f.dimension());
  for (std::size_t j = 0; j < s.size(); ++j) s[j] = (j % 3 == 0) ? 1.0 : -0.25;
  const std::vector<double> rs = [&] {
    std::vector<double> out(f.term_count());
    linalg::spmv(f.matrix(), s, out);
    return out;
  }();
  const double fused_second = f.directional_second_from_terms(fe.m2, rs);
  const double ref_second = f.directional_second(p, s, ws_ref);
  EXPECT_EQ(fused_second, ref_second);
}

TEST(FusedEval, GradHessDiagMatchesSeparateScatters) {
  const RandomObjective r(33, 40, 300, 1);
  const auto& f = *r.f;
  linalg::EvalWorkspace ws;
  std::vector<double> g(f.dimension()), h(f.dimension());
  const auto fe = f.fused_eval(r.p, g, ws);
  std::vector<double> g2(f.dimension()), h2(f.dimension());
  f.grad_hess_diag_from_terms(fe.m1, fe.m2, g2, h2);
  // Gradient from the fused grad+hess scatter == plain spmv_t scatter.
  for (std::size_t j = 0; j < g.size(); ++j) EXPECT_EQ(g[j], g2[j]);
  // Hessian diagonal against a hand scatter over the pair rows.
  std::vector<double> h_ref(f.dimension(), 0.0);
  for (std::size_t k = 0; k < f.term_count(); ++k) {
    for (const auto& [col, coeff] : f.matrix().row(k))
      h_ref[col] += coeff * coeff * fe.m2[k];
  }
  for (std::size_t j = 0; j < h.size(); ++j) EXPECT_EQ(h2[j], h_ref[j]);
}

TEST(Restriction, MatchesGenericPhiAndSkipsUntouchedTerms) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const auto& f = problem.objective();
  const std::vector<double> p = problem.constraints().initial_point();

  // A direction touching a few coordinates: most terms keep rd_k == 0.
  std::vector<double> d(f.dimension(), 0.0);
  d[0] = 1.0;
  d[f.dimension() / 2] = -0.5;

  const std::vector<double> x0 = f.inner(p);
  SeparableRestriction restriction;
  restriction.reset(f, x0, d);
  EXPECT_LT(restriction.active_terms(), f.term_count());
  EXPECT_GT(restriction.active_terms(), 0u);

  linalg::EvalWorkspace ws;
  GenericPhi generic(f, p, d, ws);
  for (const double t : {0.0, 1e-4, 5e-3}) {
    const Phi::Derivs a = restriction.derivs(t);
    const Phi::Derivs b = generic.derivs(t);
    // Same sums in different association orders: equal to rounding.
    EXPECT_NEAR(a.first, b.first,
                1e-12 * std::max(1.0, std::abs(b.first)));
    EXPECT_NEAR(a.second, b.second,
                1e-12 * std::max(1.0, std::abs(b.second)));
  }

  // Probes must not touch terms the direction leaves alone: the compact
  // sums equal the sums over the terms with rd_k != 0, taken in the
  // probe's lane order (every GEANT term starts in one pivot regime, so
  // the compact slots keep term order).
  const Phi::Derivs at = restriction.derivs(1e-3);
  std::vector<double> xt(f.term_count()), rd(f.term_count());
  linalg::spmv(f.matrix(), d, rd);
  for (std::size_t k = 0; k < xt.size(); ++k) xt[k] = x0[k] + 1e-3 * rd[k];
  std::vector<std::size_t> touched;
  for (std::size_t k = 0; k < xt.size(); ++k) {
    if (rd[k] != 0.0) touched.push_back(k);  // exact-zero contributions
  }
  const auto [first, second] =
      linalg::lane_sums<2>(touched.size(), [&](std::size_t i) {
        const std::size_t k = touched[i];
        return std::array<double, 2>{f.utility(k).deriv(xt[k]) * rd[k],
                                     f.utility(k).second(xt[k]) * rd[k] *
                                         rd[k]};
      });
  EXPECT_EQ(at.first, first);
  EXPECT_EQ(at.second, second);
}

TEST(Restriction, SecondAtZeroUsesProvidedCurvature) {
  const RandomObjective r(44, 20, 120, 0);
  const auto& f = *r.f;
  const std::vector<double> x0 = f.inner(r.p);
  std::vector<double> d(f.dimension());
  Rng rng(5);
  for (double& dj : d) dj = rng.uniform(-1.0, 1.0);

  linalg::EvalWorkspace ws;
  std::vector<double> g(f.dimension());
  const auto fe = f.fused_eval(r.p, g, ws);

  SeparableRestriction with_m2, without_m2;
  with_m2.reset(f, x0, d, fe.m2);
  without_m2.reset(f, x0, d);
  EXPECT_EQ(with_m2.second_at_zero(), without_m2.second_at_zero());
}

// Resets that keep every term's class (inactive, below or above its
// pivot) reuse the partition; any flip rebuilds it. Either way every
// probe must equal a fresh restriction's bit for bit.
TEST(Restriction, ReusedPartitionMatchesFreshResetBitwise) {
  const RandomObjective r(61, 25, 240, 1);
  const auto& f = *r.f;
  const std::size_t n = f.dimension();
  Rng rng(9);
  std::vector<double> d_full(n), d_sparse(n, 0.0);
  for (double& dj : d_full) dj = rng.uniform(-1.0, 1.0);
  // Only five coordinates move: terms off them drop out (rd_k == 0).
  for (std::size_t j = 0; j < 5; ++j) d_sparse[j] = d_full[j];
  std::vector<double> p_nudged = r.p, p_doubled = r.p;
  for (double& pj : p_nudged) pj += 1e-12;
  for (double& pj : p_doubled) pj *= 2.0;  // pushes terms past the pivot

  struct Step {
    const std::vector<double>* p;
    const std::vector<double>* d;
    bool reused;  // expected: no term changed class
  };
  const Step steps[] = {
      {&r.p, &d_full, false},          {&p_nudged, &d_full, true},
      {&p_nudged, &d_sparse, false},   {&r.p, &d_sparse, true},
      {&p_doubled, &d_sparse, false},  {&p_doubled, &d_full, false},
      {&p_doubled, &d_full, true},
  };
  SeparableRestriction reused;
  linalg::EvalWorkspace ws;
  std::vector<double> g(n);
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    const Step& step = steps[i];
    const std::vector<double> x0 = f.inner(*step.p);
    const auto fe = f.fused_eval(*step.p, g, ws);
    // Alternate with and without the caller's curvature.
    const std::span<const double> m2 =
        i % 2 == 0 ? fe.m2 : std::span<const double>{};
    reused.reset(f, x0, *step.d, m2);
    SeparableRestriction fresh;
    fresh.reset(f, x0, *step.d, m2);
    EXPECT_EQ(reused.reused_partition(), step.reused) << "step " << i;
    EXPECT_FALSE(fresh.reused_partition());
    ASSERT_EQ(reused.active_terms(), fresh.active_terms()) << "step " << i;
    EXPECT_EQ(reused.second_at_zero(), fresh.second_at_zero())
        << "step " << i;
    for (const double t : {0.0, 1e-4, 5e-4}) {
      const Phi::Derivs a = reused.derivs(t);
      const Phi::Derivs b = fresh.derivs(t);
      EXPECT_EQ(a.first, b.first) << "step " << i << " t=" << t;
      EXPECT_EQ(a.second, b.second) << "step " << i << " t=" << t;
    }
  }
}

// The probe sums run in a fixed lane order on the calling thread: a
// pool only shards the elementwise work and the SIMD level only changes
// the kernels, which are bit-exact, so every combination returns the same
// bits, and the caller-provided phi''(0) still equals derivs(0).second.
TEST(Restriction, LaneOrderProbesBitIdenticalAcrossPoolsAndSimdLevels) {
  const SimdLevel saved_level = simd_dispatch_level();
  // Above the restriction's parallel threshold, so the pool is used.
  const RandomObjective r(71, 400, 6000, 1);
  const auto& f = *r.f;
  const std::vector<double> x0 = f.inner(r.p);
  std::vector<double> d(f.dimension());
  Rng rng(12);
  for (double& dj : d) dj = rng.uniform(-1.0, 1.0);
  linalg::EvalWorkspace ws;
  std::vector<double> g(f.dimension());
  const auto fe = f.fused_eval(r.p, g, ws);
  const double ts[] = {0.0, 1e-4, 3e-3};

  set_simd_dispatch_level(SimdLevel::kScalar);
  SeparableRestriction reference;
  reference.reset(f, x0, d, fe.m2);
  ASSERT_GE(reference.active_terms(), 4096u);
  std::vector<Phi::Derivs> expected;
  for (const double t : ts) expected.push_back(reference.derivs(t));
  EXPECT_EQ(reference.second_at_zero(), expected[0].second);

  runtime::ThreadPool pool(3);
  for (int l = 0; l <= static_cast<int>(simd_max_level()); ++l) {
    const auto level = static_cast<SimdLevel>(l);
    set_simd_dispatch_level(level);
    for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                   &pool}) {
      SeparableRestriction restriction;
      restriction.reset(f, x0, d, fe.m2, p);
      EXPECT_EQ(restriction.second_at_zero(), expected[0].second)
          << simd_level_name(level);
      for (std::size_t i = 0; i < std::size(ts); ++i) {
        const Phi::Derivs at = restriction.derivs(ts[i]);
        EXPECT_EQ(at.first, expected[i].first)
            << simd_level_name(level) << " pool=" << (p != nullptr)
            << " t=" << ts[i];
        EXPECT_EQ(at.second, expected[i].second)
            << simd_level_name(level) << " pool=" << (p != nullptr)
            << " t=" << ts[i];
      }
    }
  }
  set_simd_dispatch_level(saved_level);
}

TEST(IncrementalRho, ColumnAxpyMatchesFullRecompute) {
  const RandomObjective r(55, 30, 200, 1);
  const auto& f = *r.f;
  std::vector<double> x = f.inner(r.p);
  std::vector<double> p = r.p;

  Rng rng(6);
  for (int step = 0; step < 50; ++step) {
    const std::size_t j = rng.below(p.size());
    const double delta = rng.uniform(-0.05, 0.05);
    p[j] += delta;
    f.inner_axpy(j, delta, x);
  }
  const std::vector<double> exact = f.inner(p);
  for (std::size_t k = 0; k < x.size(); ++k)
    EXPECT_NEAR(x[k], exact[k], 1e-12 * std::max(1.0, std::abs(exact[k])))
        << "rho @" << k;
}

TEST(Solver, FusedAndGenericPathsAgree) {
  DispatchGuard guard;
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);

  SolverOptions fused, generic;
  fused.use_fused = true;
  generic.use_fused = false;
  const SolveResult a = maximize(problem.objective(), problem.constraints(),
                                 fused);
  const SolveResult b = maximize(problem.objective(), problem.constraints(),
                                 generic);
  EXPECT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.value, b.value, 1e-9 * std::abs(b.value));
  ASSERT_EQ(a.p.size(), b.p.size());
  for (std::size_t j = 0; j < a.p.size(); ++j)
    EXPECT_NEAR(a.p[j], b.p[j], 1e-7) << "rate @" << j;

  // The fused solve itself is dispatch-invariant: scalar and SIMD runs
  // take identical trajectories because the kernels are bit-identical.
  set_simd_dispatch(false);
  const SolveResult scalar_run =
      maximize(problem.objective(), problem.constraints(), fused);
  set_simd_dispatch(true);
  const SolveResult simd_run =
      maximize(problem.objective(), problem.constraints(), fused);
  EXPECT_EQ(scalar_run.value, simd_run.value);
  EXPECT_EQ(scalar_run.iterations, simd_run.iterations);
  for (std::size_t j = 0; j < scalar_run.p.size(); ++j)
    EXPECT_EQ(scalar_run.p[j], simd_run.p[j]) << "rate @" << j;
}

// A workspace reused across solves of different objectives that live at
// the same address (a caller rebuilding its problem in place, as the
// control loop does every bin) must not probe with the previous
// objective's line-search partition. Same structure, same classes,
// different coefficients: only maximize()'s invalidation tells them apart.
TEST(Solver, SharedWorkspaceMatchesFreshAcrossSameAddressObjectives) {
  Rng rng(808);
  const std::size_t n = 30, terms = 90;
  SeparableConcaveObjective::SparseRows rows(terms);
  std::vector<std::shared_ptr<const Concave1d>> utilities_a, utilities_b;
  for (std::size_t k = 0; k < terms; ++k) {
    const std::size_t nnz = 1 + rng.below(4);
    for (std::size_t i = 0; i < nnz; ++i)
      rows[k].emplace_back(rng.below(n), rng.uniform(0.2, 1.5));
    utilities_a.push_back(
        std::make_shared<core::LogUtility>(rng.uniform(0.001, 0.02)));
    utilities_b.push_back(
        std::make_shared<core::LogUtility>(rng.uniform(0.001, 0.02)));
  }
  std::vector<double> u(n), alpha(n, 1.0);
  double budget = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    u[j] = rng.uniform(0.5, 2.0);
    budget += u[j];
  }
  const BoxBudgetConstraints constraints(std::move(u), std::move(alpha),
                                         0.3 * budget);

  // A one-iteration solve (a cancelled request) leaves the all-active
  // partition of the uniform start behind; the next objective's first
  // search, from the same start, has the same classes.
  SolverOptions first;
  first.max_iterations = 1;
  std::optional<SeparableConcaveObjective> f;
  SolverWorkspace shared;
  const auto expect_same = [](const SolveResult& a, const SolveResult& b) {
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.lambda, b.lambda);
    EXPECT_EQ(a.p, b.p);
  };
  for (const auto* utilities : {&utilities_a, &utilities_b, &utilities_a}) {
    f.emplace(n, rows, *utilities);
    for (const SolverOptions& options : {SolverOptions{}, first}) {
      const SolveResult reused =
          maximize(*f, constraints, options, nullptr, &shared);
      SolverWorkspace fresh;
      expect_same(reused,
                  maximize(*f, constraints, options, nullptr, &fresh));
    }
  }
}

TEST(Solver, FusedPathHandlesOffsetsAndRandomInstances) {
  // Random instances with offsets (the sequential-linearization shape)
  // through both paths.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    Rng rng(seed);
    const std::size_t n = 12 + rng.below(20);
    const std::size_t terms = n + rng.below(40);
    SeparableConcaveObjective::SparseRows rows(terms);
    std::vector<std::shared_ptr<const Concave1d>> utilities;
    std::vector<double> offsets;
    for (std::size_t k = 0; k < terms; ++k) {
      const std::size_t nnz = 1 + rng.below(4);
      for (std::size_t i = 0; i < nnz; ++i)
        rows[k].emplace_back(rng.below(n), rng.uniform(0.2, 1.5));
      utilities.push_back(
          std::make_shared<core::SreUtility>(rng.uniform(0.02, 0.5)));
      offsets.push_back(rng.uniform(0.0, 0.05));
    }
    const SeparableConcaveObjective f(n, std::move(rows),
                                      std::move(utilities),
                                      std::move(offsets));
    std::vector<double> u(n), alpha(n, 1.0);
    double budget = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      u[j] = rng.uniform(0.5, 2.0);
      budget += u[j];
    }
    const BoxBudgetConstraints constraints(std::move(u), std::move(alpha),
                                           0.2 * budget);
    SolverOptions fused, generic;
    fused.use_fused = true;
    generic.use_fused = false;
    const SolveResult a = maximize(f, constraints, fused);
    const SolveResult b = maximize(f, constraints, generic);
    EXPECT_NEAR(a.value, b.value,
                1e-8 * std::max(1.0, std::abs(b.value)))
        << "seed " << seed;
    EXPECT_EQ(a.status, b.status) << "seed " << seed;
  }
}

}  // namespace
}  // namespace netmon::opt
