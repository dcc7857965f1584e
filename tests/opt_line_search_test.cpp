#include "opt/line_search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "core/problem.hpp"
#include "core/scale_scenario.hpp"
#include "core/utility.hpp"
#include "opt/fused_eval.hpp"
#include "opt/gradient_projection.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::opt {
namespace {

// Quadratic test objective f(p) = -sum a_j (p_j - c_j)^2.
class Quadratic final : public Objective {
 public:
  Quadratic(std::vector<double> a, std::vector<double> c)
      : a_(std::move(a)), c_(std::move(c)) {}
  std::size_t dimension() const override { return a_.size(); }
  double value(std::span<const double> p) const override {
    double v = 0.0;
    for (std::size_t j = 0; j < a_.size(); ++j)
      v -= a_[j] * (p[j] - c_[j]) * (p[j] - c_[j]);
    return v;
  }
  void gradient(std::span<const double> p,
                std::span<double> out) const override {
    for (std::size_t j = 0; j < a_.size(); ++j)
      out[j] = -2.0 * a_[j] * (p[j] - c_[j]);
  }
  double directional_second(std::span<const double>,
                            std::span<const double> s) const override {
    double v = 0.0;
    for (std::size_t j = 0; j < a_.size(); ++j) v -= 2.0 * a_[j] * s[j] * s[j];
    return v;
  }

 private:
  std::vector<double> a_, c_;
};

TEST(LineSearch, NewtonFindsQuadraticMaxInOneStep) {
  const Quadratic f({1.0}, {2.0});
  const std::vector<double> p{0.0};
  const std::vector<double> d{1.0};
  const auto r = maximize_along(f, p, d, 10.0);
  EXPECT_NEAR(r.t, 2.0, 1e-10);
  EXPECT_FALSE(r.hit_boundary);
  EXPECT_LE(r.iters, 3);  // Newton is exact on quadratics
}

TEST(LineSearch, StopsAtBoundaryWhenAscending) {
  const Quadratic f({1.0}, {5.0});
  const std::vector<double> p{0.0};
  const std::vector<double> d{1.0};
  const auto r = maximize_along(f, p, d, 1.5);
  EXPECT_DOUBLE_EQ(r.t, 1.5);
  EXPECT_TRUE(r.hit_boundary);
}

// Both variants stop at a strong-Wolfe step, not at the exact maximizer.
// On a quadratic phi'(t) = phi'' (t - t*), so the curvature condition
// puts each step within kWolfeSigma * phi'(0) / |phi''| of t*.
TEST(LineSearch, BisectionMatchesNewton) {
  const Quadratic f({1.0, 3.0}, {1.0, 0.5});
  const std::vector<double> p{0.0, 0.0};
  const std::vector<double> d{1.0, 0.7};
  LineSearchOptions newton;
  LineSearchOptions bisect;
  bisect.newton = false;
  bisect.max_iters = 200;
  const auto rn = maximize_along(f, p, d, 5.0, newton);
  const auto rb = maximize_along(f, p, d, 5.0, bisect);
  std::vector<double> g(2);
  f.gradient(p, g);
  const double first0 = g[0] * d[0] + g[1] * d[1];
  const double second = f.directional_second(p, d);
  const double t_star = first0 / -second;
  const double radius = kWolfeSigma * first0 / -second;
  for (const LineSearchResult& r : {rn, rb}) {
    EXPECT_FALSE(r.hit_boundary);
    EXPECT_LE(std::abs(r.t - t_star), radius);
    const std::vector<double> at{p[0] + r.t * d[0], p[1] + r.t * d[1]};
    f.gradient(at, g);
    EXPECT_LE(std::abs(g[0] * d[0] + g[1] * d[1]), kWolfeSigma * first0);
    EXPECT_GE(f.value(at), f.value(p));
  }
  EXPECT_LT(rn.iters, rb.iters);  // Newton converges faster
}

TEST(LineSearch, NonQuadraticConcave) {
  // f(p) = log(1+p0): max along d=(1) on [0,10] is at the boundary.
  class LogObj final : public Objective {
   public:
    std::size_t dimension() const override { return 1; }
    double value(std::span<const double> p) const override {
      return std::log1p(p[0]);
    }
    void gradient(std::span<const double> p,
                  std::span<double> out) const override {
      out[0] = 1.0 / (1.0 + p[0]);
    }
    double directional_second(std::span<const double> p,
                              std::span<const double> s) const override {
      return -s[0] * s[0] / ((1.0 + p[0]) * (1.0 + p[0]));
    }
  } f;
  const std::vector<double> p{0.0};
  const std::vector<double> d{1.0};
  const auto r = maximize_along(f, p, d, 10.0);
  EXPECT_TRUE(r.hit_boundary);  // log is increasing: never levels off
  EXPECT_DOUBLE_EQ(r.t, 10.0);
}

TEST(LineSearch, ValidatesPreconditions) {
  const Quadratic f({1.0}, {2.0});
  const std::vector<double> p{0.0};
  const std::vector<double> d{1.0};
  EXPECT_THROW(maximize_along(f, p, d, 0.0), Error);
}

TEST(LineSearch, DescentDirectionReportsNoProgress) {
  // Near numerical convergence the solver can hand over a direction with
  // phi'(0) <= 0; the search reports t = 0 rather than failing.
  const Quadratic f({1.0}, {2.0});
  const std::vector<double> p{0.0};
  const std::vector<double> descent{-1.0};
  const auto r = maximize_along(f, p, descent, 1.0);
  EXPECT_DOUBLE_EQ(r.t, 0.0);
  EXPECT_FALSE(r.hit_boundary);
}

// A random separable concave objective over `n` variables, a random
// interior point and a zero-sum direction (a projected gradient's shape:
// some rates rise, others fall, so phi has an interior maximizer).
struct RandomRestriction {
  std::unique_ptr<SeparableConcaveObjective> f;
  std::vector<double> p, d;
  double t_max = 0.0;

  RandomRestriction(std::uint64_t seed, std::size_t n, std::size_t terms) {
    Rng rng(seed);
    SeparableConcaveObjective::SparseRows rows(terms);
    std::vector<std::shared_ptr<const Concave1d>> utilities;
    for (std::size_t k = 0; k < terms; ++k) {
      const std::size_t nnz = 1 + rng.below(4);
      for (std::size_t i = 0; i < nnz; ++i)
        rows[k].emplace_back(rng.below(n), rng.uniform(0.1, 2.0));
      switch (rng.below(3)) {
        case 0:
          utilities.push_back(
              std::make_shared<core::SreUtility>(rng.uniform(0.01, 0.5)));
          break;
        case 1:
          utilities.push_back(
              std::make_shared<core::LogUtility>(rng.uniform(0.01, 1.0)));
          break;
        default:
          utilities.push_back(std::make_shared<core::DetectionUtility>(
              2.0 + rng.uniform(0.0, 50.0)));
      }
    }
    f = std::make_unique<SeparableConcaveObjective>(n, std::move(rows),
                                                    std::move(utilities));
    for (std::size_t j = 0; j < n; ++j) p.push_back(rng.uniform(0.05, 0.5));
    std::vector<double> g(n);
    f->gradient(p, g);
    double mean = 0.0;
    for (double gj : g) mean += gj / static_cast<double>(n);
    t_max = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      d.push_back(g[j] - mean);
      if (d[j] < 0.0) t_max = std::min(t_max, p[j] / -d[j]);
    }
  }

  /// phi(t) - phi(0), summed per term so that it is accurate to rounding
  /// of the terms rather than of the whole objective.
  double gain(double t) const {
    const std::vector<double> x0 = f->inner(p);
    std::vector<double> rd(f->term_count());
    linalg::spmv(f->matrix(), d, rd);
    double sum = 0.0, scale = 0.0;
    for (std::size_t k = 0; k < x0.size(); ++k) {
      const double before = f->utility(k).value(x0[k]);
      sum += f->utility(k).value(x0[k] + t * rd[k]) - before;
      scale += std::abs(before);
    }
    // Report rounding-level differences as exact ties.
    return std::abs(sum) <= 1e-13 * scale ? 0.0 : sum;
  }
};

// The accepted interior step of every search meets the strong-Wolfe exit:
// |phi'(t)| <= sigma phi'(0), and it never loses value — whether it was
// probed through the generic gradient path or the fused restriction.
TEST(LineSearch, InteriorStepsMeetStrongWolfeOnRandomConcaveRestrictions) {
  int interior = 0, descending = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomRestriction r(seed, 6 + seed % 20, 20 + 3 * seed);
    const auto& f = *r.f;
    std::vector<double> g(f.dimension());
    f.gradient(r.p, g);
    double first0 = 0.0;
    for (std::size_t j = 0; j < g.size(); ++j) first0 += g[j] * r.d[j];
    ASSERT_GT(first0, 0.0) << "seed " << seed;

    linalg::EvalWorkspace ws;
    GenericPhi generic(f, r.p, r.d, ws);
    const LineSearchResult a = maximize_phi(generic, r.t_max, {}, first0);

    const std::vector<double> x0 = f.inner(r.p);
    SeparableRestriction fused;
    fused.reset(f, x0, r.d);
    const double fused_first0 = fused.derivs(0.0).first;
    const LineSearchResult b = maximize_phi(fused, r.t_max, {}, fused_first0);

    for (const auto& [result, phi, phi0] :
         {std::tuple<const LineSearchResult&, Phi*, double>{a, &generic,
                                                             first0},
          {b, &fused, fused_first0}}) {
      if (result.hit_boundary) continue;
      ++interior;
      const double slope = phi->derivs(result.t).first;
      descending += slope < 0.0;
      EXPECT_GT(result.t, 0.0) << "seed " << seed;
      EXPECT_LE(std::abs(slope), kWolfeSigma * phi0) << "seed " << seed;
      EXPECT_GE(r.gain(result.t), 0.0) << "seed " << seed;
    }
  }
  // Most instances have an interior maximizer, and some steps are taken
  // past it (where the ascent is the proven bound, not concavity alone).
  EXPECT_GE(interior, 40);
  EXPECT_GT(descending, 0);
}

// Interior searches of a full solve on the scale smoke instance: after
// the probe at t_max that rules out a blocked step, the two-probe model
// usually lands inside the exit in one or two steps.
TEST(LineSearch, InteriorSearchesOnTheSmokeInstanceAreCheap) {
  core::ScaleScenarioOptions options;
  options.hierarchy.cores = 4;
  options.hierarchy.aggs_per_core = 3;
  options.hierarchy.edges_per_agg = 40;  // 496 nodes, 2,988 links
  options.fanout.od_count = 3000;
  options.fanout.max_sources = 24;
  const core::ScaleScenario scenario = core::make_scale_scenario(options);
  const core::PlacementProblem problem =
      core::make_problem(scenario, core::ProblemOptions{});
  const SolveResult r = maximize(problem.objective(), problem.constraints());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  ASSERT_GT(r.interior_searches, 100);
  // Every search probes t_max once; an interior one then spends iters.
  const double newton_probes_per_interior =
      static_cast<double>(r.line_search_probes - r.line_searches) /
      r.interior_searches;
  EXPECT_LE(newton_probes_per_interior, 2.5);
  EXPECT_LE(static_cast<double>(r.line_search_probes) / r.line_searches, 3.0);
}

}  // namespace
}  // namespace netmon::opt
