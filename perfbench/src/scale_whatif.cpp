// Workload scale_whatif (closed loop): failure what-if fleets on the
// 102,810-link hierarchical instance.
//
// Set-up generates the instance (core.gen), builds its placement problem
// and solves the incumbent with the partitioned approximation tier
// (core.approx, certified gap). One op is a fleet of kFleet single-link
// failures among the incumbent's candidate links:
// core::make_problem for each (core.problem, serial), then one
// core::resolve_warm_batch call on the runtime fan-out warm-started from
// the incumbent (opt.fleet_solve). The slowest member sets the op time.
// A cold exact solve at this size stops at the iteration limit, so every
// op is warm.
//
// Most warm members certify in ~650 iterations, a few need ~10k (at the
// library's default 2000-iteration cap they would stop uncertified), so
// fleet times are strongly bimodal. To keep runs comparable, the fleets
// come from one fixed catalogue of kCatalogue fleets (drawn once from a
// constant seed); a run measures whole passes over it (at least one, then
// as many as fit in --seconds), each pass in an order drawn from the
// run's seed.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common.hpp"
#include "netmon.hpp"

namespace perfbench {
namespace {

using namespace netmon;

constexpr std::size_t kFleet = 4;
constexpr std::size_t kCatalogue = 4;
constexpr std::uint64_t kCatalogueSeed = 2006;
/// Latency limit of one fleet (the slow catalogue fleet takes ~12 s).
constexpr double kLimitMs = 30000.0;

struct Setup {
  core::ScaleScenario scenario;
  double theta = 0.0;
  std::unique_ptr<core::PlacementProblem> problem;
  core::ApproxResult incumbent;
  double gen_ms = 0.0;
  double problem_ms = 0.0;
  double approx_ms = 0.0;

  Setup() {
    core::ScaleScenarioOptions options;
    options.hierarchy = topo::hierarchy_scale_options();
    Ns t = now_ns();
    scenario = core::make_scale_scenario(options);
    gen_ms = ms_between(t, now_ns());

    t = now_ns();
    theta = core::default_scale_theta(scenario);
    core::ProblemOptions problem_options;
    problem_options.theta = theta;
    problem = std::make_unique<core::PlacementProblem>(
        core::make_problem(scenario, problem_options));
    problem_ms = ms_between(t, now_ns());

    t = now_ns();
    const core::Partition partition =
        core::partition_by_region(*problem, scenario.net);
    runtime::ThreadPool pool(std::thread::hardware_concurrency());
    core::ApproxOptions approx;
    approx.pool = &pool;
    approx.polish.pool = &pool;
    incumbent = core::solve_approx(*problem, partition, approx);
    approx_ms = ms_between(t, now_ns());
  }
};

}  // namespace

Result run_scale_whatif(const Args& args, Tracer& tracer) {
  Result result;
  std::unique_ptr<Setup> setup;
  const double setup_s = timed_setups<Setup>(
      2, 0.0, setup, [] { return std::make_unique<Setup>(); });
  result.e2e["setup_s"] = setup_s;
  Setup& s = *setup;
  const double gap_rel = s.incumbent.certificate.relative_gap;
  result.gate(gap_rel <= 0.01,
              "incumbent gap: " + std::to_string(gap_rel) + " above 1%");
  check_placement(result, "scale incumbent", *s.problem, s.incumbent.solution);
  std::printf("  set-up %.3f s: %zu links, %zu candidates, incumbent gap "
              "%.3g (gen %.0f ms, problem %.0f ms, approx %.0f ms)\n",
              setup_s, s.scenario.net.graph.link_count(),
              s.problem->candidates().size(), gap_rel, s.gen_ms,
              s.problem_ms, s.approx_ms);

  const std::vector<topo::LinkId>& candidates = s.problem->candidates();
  std::vector<std::vector<topo::LinkId>> catalogue(kCatalogue);
  Rng draw(kCatalogueSeed);
  for (std::vector<topo::LinkId>& fleet : catalogue) {
    while (fleet.size() < kFleet) {
      const topo::LinkId link = candidates[static_cast<std::size_t>(
          draw.uniform() * static_cast<double>(candidates.size()))];
      if (std::find(fleet.begin(), fleet.end(), link) == fleet.end())
        fleet.push_back(link);
    }
  }
  Rng rng(args.seed);
  std::vector<std::size_t> order(kCatalogue);
  core::BatchOptions batch;
  batch.threads = std::min(4u, std::thread::hardware_concurrency());
  // Solve to certification (time-to-certified-placement): at the
  // library's default cap of 2000 iterations some warm members stop
  // uncertified, which the placement gate rejects.
  batch.solver.max_iterations = kCertifyIterations;

  std::vector<double> op_ms, traced_ms, untraced_ms, iters, per_iter_ms;
  std::vector<double> routing_ms;
  double ratio_min = 1.0;
  double iter_total = 0.0;
  // Whole passes: another one starts only if it should end within the
  // budget (judged by the last pass); the first always runs.
  const Ns start = now_ns();
  const Ns budget = static_cast<Ns>(args.seconds * 1e9);
  Ns pass_start = start;
  Ns last_pass = 0;
  std::uint32_t op = 0;
  // A traced run measures every fleet twice in a row, traced then
  // untraced, so its tracing overhead compares like with like.
  const std::uint32_t repeats = tracer.enabled() ? 2 : 1;
  const std::uint32_t per_pass = kCatalogue * repeats;
  const auto another_op = [&] {
    if (args.ops > 0) return op < static_cast<std::uint32_t>(args.ops);
    if (op % per_pass != 0) return true;
    if (op == 0) return true;
    const Ns now = now_ns();
    last_pass = now - pass_start;
    pass_start = now;
    return now - start + last_pass <= budget;
  };
  while (another_op()) {
    if (op % per_pass == 0) {
      // A new pass: a seeded Fisher-Yates order over the catalogue.
      std::iota(order.begin(), order.end(), std::size_t{0});
      for (std::size_t i = kCatalogue - 1; i > 0; --i)
        std::swap(order[i], order[static_cast<std::size_t>(
                                rng.uniform() * static_cast<double>(i + 1))]);
    }
    const std::vector<topo::LinkId>& failures =
        catalogue[order[(op % per_pass) / repeats]];
    ++op;
    tracer.set_active(op % 2 == 1);
    ++result.attempted;
    for (const topo::LinkId link : failures) result.hash_u64(link);

    std::vector<core::PlacementProblem> problems;
    problems.reserve(kFleet);

    // ---- timed op ----
    const Ns t0 = now_ns();
    const std::int32_t root = tracer.open("op", op);
    for (const topo::LinkId link : failures) {
      Span span(tracer, "core.problem", op);
      core::ProblemOptions options;
      options.theta = s.theta;
      options.failed.insert(link);
      problems.push_back(core::make_problem(s.scenario, options));
    }
    std::vector<core::PlacementSolution> solutions;
    Ns solve_start = now_ns();
    {
      Span span(tracer, "opt.fleet_solve", op);
      std::vector<const core::PlacementProblem*> pointers;
      for (const core::PlacementProblem& problem : problems)
        pointers.push_back(&problem);
      solutions = core::resolve_warm_batch(
          pointers, s.incumbent.solution.rates, batch);
    }
    const double solve_ms = ms_between(solve_start, now_ns());
    tracer.close(root);
    const double ms = ms_between(t0, now_ns());
    // ---- end of timed op ----

    op_ms.push_back(ms);
    (tracer.active() ? traced_ms : untraced_ms).push_back(ms);
    bool ok = solutions.size() == kFleet;
    int max_iters = 0;
    for (std::size_t i = 0; ok && i < kFleet; ++i) {
      const core::PlacementSolution& solution = solutions[i];
      ok = check_placement(result, "scale what-if", problems[i], solution) &&
           ok;
      iters.push_back(solution.iterations);
      iter_total += solution.iterations;
      max_iters = std::max(max_iters, solution.iterations);
      // Reference: the certified upper bound of the same problem.
      const opt::GapCertificate certificate = opt::certified_gap(
          problems[i].objective(), problems[i].constraints(),
          problems[i].compress(solution.rates));
      ratio_min = std::min(ratio_min, solution.total_utility /
                                          certificate.upper_bound);
    }
    if (max_iters > 0) per_iter_ms.push_back(solve_ms / max_iters);
    if (!ok) ++result.failed;
    if (tracer.active()) {
      // Routing share of a problem build, measured beside the op.
      for (const topo::LinkId link : failures) {
        routing::LinkSet failed{link};
        const Ns r0 = now_ns();
        (void)routing::RoutingMatrix::single_path(
            s.scenario.net.graph, s.scenario.task.ods, failed);
        routing_ms.push_back(ms_between(r0, now_ns()));
      }
    }
  }
  closed_loop_metrics(result, op_ms, kLimitMs);
  result.e2e["utility_ratio_min"] = ratio_min;
  result.counts["fleets"] = op;
  result.counts["solver_iterations"] = iter_total;

  if (tracer.enabled()) {
    auto& L = result.layer;
    L["routing.build_ms"] = median(routing_ms);
    L["core.problem_ms"] = median(tracer.durations_ms("core.problem"));
    L["core.gen_ms"] = s.gen_ms;
    L["core.approx_ms"] = s.approx_ms;
    L["core.gap_rel"] = gap_rel;
    L["opt.fleet_solve_ms"] = median(tracer.durations_ms("opt.fleet_solve"));
    L["opt.iters"] = mean(iters);
    L["opt.ms_per_iter"] = median(per_iter_ms);
    ledger_metrics(result, tracer, traced_ms, untraced_ms);
  }
  std::printf("  %u fleets of %zu failures, %.0f solver iterations\n", op,
              kFleet, iter_total);
  return result;
}

}  // namespace perfbench
