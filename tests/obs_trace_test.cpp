#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/utility.hpp"
#include "obs/export.hpp"
#include "opt/gradient_projection.hpp"

namespace netmon::opt {
namespace {

std::shared_ptr<const Concave1d> log_u(double eps) {
  return std::make_shared<core::LogUtility>(eps);
}

/// The two-variable analytic problem from the gradient-projection tests.
struct Fixture {
  Fixture()
      : f(2, SeparableConcaveObjective::SparseRows{{{0, 1.0}}, {{1, 1.0}}},
          {log_u(0.1), log_u(0.1)}),
        c({1.0, 2.0}, {1.0, 1.0}, 0.5) {}
  SeparableConcaveObjective f;
  BoxBudgetConstraints c;
};

TEST(SolverTrace, OneRecordPerIterationPlusFinalSummary) {
  Fixture fx;
  obs::SolverTrace trace(256);
  SolverOptions options;
  options.trace = &trace;

  const SolveResult result = maximize(fx.f, fx.c, options);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);

  const auto records = trace.snapshot();
  ASSERT_EQ(records.size(),
            static_cast<std::size_t>(result.iterations) + 1);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_FALSE(records[i].final_record);
    EXPECT_EQ(records[i].iteration, i + 1);
    EXPECT_TRUE(records[i].fused);
    EXPECT_EQ(records[i].solve_id, records.back().solve_id);
  }
  EXPECT_TRUE(records.back().final_record);
}

TEST(SolverTrace, FinalRecordMatchesSolveResultExactly) {
  Fixture fx;
  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;

  const SolveResult result = maximize(fx.f, fx.c, options);

  const auto records = trace.snapshot();
  ASSERT_FALSE(records.empty());
  const obs::TraceRecord& last = records.back();
  ASSERT_TRUE(last.final_record);
  // Bit-exact: the summary record stores the SolveResult fields verbatim.
  EXPECT_EQ(last.kkt_lambda, result.lambda);
  EXPECT_EQ(last.kkt_residual, result.worst_multiplier);
  EXPECT_EQ(last.value, result.value);
  EXPECT_EQ(static_cast<int>(last.iteration), result.iterations);
  EXPECT_EQ(static_cast<SolveStatus>(last.status), result.status);
}

TEST(SolverTrace, TracingDoesNotChangeTheSolution) {
  Fixture fx;
  const SolveResult plain = maximize(fx.f, fx.c);

  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  const SolveResult traced = maximize(fx.f, fx.c, options);

  ASSERT_EQ(traced.p.size(), plain.p.size());
  for (std::size_t j = 0; j < plain.p.size(); ++j)
    EXPECT_EQ(traced.p[j], plain.p[j]);  // bit-identical
  EXPECT_EQ(traced.value, plain.value);
  EXPECT_EQ(traced.iterations, plain.iterations);
}

TEST(SolverTrace, DistinctSolvesGetDistinctIds) {
  Fixture fx;
  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  maximize(fx.f, fx.c, options);
  const std::uint64_t first = trace.snapshot().back().solve_id;
  maximize(fx.f, fx.c, options);
  const std::uint64_t second = trace.snapshot().back().solve_id;
  EXPECT_NE(first, second);
}

TEST(SolverTrace, JsonlHasOneObjectPerRecordWithTheSchemaKeys) {
  Fixture fx;
  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  maximize(fx.f, fx.c, options);

  const std::string jsonl = trace.jsonl();
  const auto lines = static_cast<std::size_t>(
      std::count(jsonl.begin(), jsonl.end(), '\n'));
  EXPECT_EQ(lines, trace.snapshot().size());
  for (const char* key :
       {"\"solve\":", "\"iter\":", "\"final\":", "\"fused\":", "\"status\":",
        "\"value\":", "\"grad_inf\":", "\"proj_grad_norm\":", "\"step\":",
        "\"active_set\":", "\"restriction_terms\":", "\"kkt_lambda\":",
        "\"kkt_residual\":"}) {
    EXPECT_NE(jsonl.find(key), std::string::npos) << key;
  }
}

TEST(SolverCounters, CountSolvesIterationsReleasesAndActivations) {
  Fixture fx;
  obs::MetricsRegistry registry;
  SolverOptions options;
  options.counters = obs::register_solver_counters(registry);

  const SolveResult a = maximize(fx.f, fx.c, options);
  // A warm start with small rates on coordinates that are zero at the
  // optimum: its first blocked step activates them in bulk.
  constexpr std::size_t n = 12;
  SeparableConcaveObjective::SparseRows rows(n);
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  std::vector<double> start(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    rows[j].emplace_back(j, 1.0);
    utilities.push_back(log_u(j < 2 ? 0.05 : 100.0));
    start[j] = j < 2 ? 0.1 : 1e-3 * static_cast<double>(j);
  }
  double theta = 0.0;
  for (double v : start) theta += v;
  const SeparableConcaveObjective f(n, std::move(rows), utilities);
  const BoxBudgetConstraints c(std::vector<double>(n, 1.0),
                               std::vector<double>(n, 1.0), theta);
  const SolveResult b = maximize(f, c, options, &start);
  ASSERT_GT(b.activation_events, 0);

  const obs::RegistrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("netmon_solver_solves_total")->value, 2.0);
  EXPECT_EQ(snap.find("netmon_solver_iterations_total")->value,
            static_cast<double>(a.iterations + b.iterations));
  EXPECT_EQ(snap.find("netmon_solver_release_events_total")->value,
            static_cast<double>(a.release_events + b.release_events));
  EXPECT_EQ(snap.find("netmon_solver_activation_events_total")->value,
            static_cast<double>(a.activation_events + b.activation_events));
  EXPECT_EQ(snap.find("netmon_solver_cancelled_total")->value, 0.0);
  // Line-search probes: at least one per search, and every interior
  // search adds its Newton steps.
  ASSERT_GT(a.line_searches, 0);
  EXPECT_GE(a.line_search_probes, a.line_searches + a.interior_searches);
  EXPECT_LE(a.interior_searches, a.line_searches);
  EXPECT_EQ(snap.find("netmon_solver_line_searches_total")->value,
            static_cast<double>(a.line_searches + b.line_searches));
  EXPECT_EQ(snap.find("netmon_solver_line_search_probes_total")->value,
            static_cast<double>(a.line_search_probes + b.line_search_probes));
}

TEST(SolverCounters, CancelledSolvesAreCounted) {
  Fixture fx;
  obs::MetricsRegistry registry;
  SolverOptions options;
  options.counters = obs::register_solver_counters(registry);
  options.should_stop = [](int iterations) { return iterations >= 1; };

  const SolveResult result = maximize(fx.f, fx.c, options);
  EXPECT_EQ(result.status, SolveStatus::kCancelled);
  EXPECT_EQ(registry.snapshot().find("netmon_solver_cancelled_total")->value,
            1.0);
}

}  // namespace
}  // namespace netmon::opt
