// Workload bin_cycle (closed loop): one op is one measurement bin of the
// GEANT network carrying the JANET task, timed from the start of ingest
// until the placement it causes reaches a TCP client:
//
//   pre-generated synthetic packets of the bin
//     -> ingest::IngestPipeline (kBlock)      ingest.build / ingest.run
//     -> ingest::od_rate_estimates            ingest.estimate
//     -> control::ControlLoop::step           control.step
//     -> tenant::TenantRegistry::publish      tenant.publish
//        of the tracked model
//     -> serve::TcpClient kAccuracyReport     serve.tcp (+ the server's
//        warm-started from loop.rates()       own queue/solve split)
//
// Demand follows a seeded day: a diurnal swing, an evening surge and a
// link-failure window, so the control policy holds on some bins and
// re-solves on others. Everything the op needs (topology, per-pattern
// routing, loads and packet schedules, the loop's first solve, the
// service, TCP server and client) is built in set-up.
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <thread>

#include "common.hpp"
#include "netmon.hpp"

namespace perfbench {
namespace {

using namespace netmon;

/// Measurement interval of one bin (trace seconds). Sized so that one
/// bin offers a few hundred thousand packets to the monitored links.
constexpr double kIntervalSec = 4.0;
/// Sampling budget theta per interval (packets).
constexpr double kTheta = 3e4;
/// Bins per replayed day.
constexpr int kDayBins = 48;
/// Latency limit of one bin's packet-to-answer cycle.
constexpr double kLimitMs = 250.0;

/// One demand pattern: a scale of the base day and an optional failure.
struct Pattern {
  double scale = 1.0;
  routing::LinkSet failed;
  std::optional<routing::RoutingMatrix> matrix;
  traffic::LinkLoads loads;
  std::unique_ptr<ingest::SyntheticTraffic> traffic;
};

struct Setup {
  core::GeantScenario scenario = core::make_geant_scenario();
  core::MeasurementTask task;
  traffic::TrafficMatrix task_demands;
  netflow::EgressMap egress;
  core::ProblemOptions problem;
  std::vector<Pattern> patterns;
  /// Pattern index of each bin of the day.
  std::vector<int> day;
  runtime::ThreadPool ingest_pool;
  obs::ManualClock clock;
  std::unique_ptr<control::ControlLoop> loop;
  tenant::TenantRegistry registry;
  std::unique_ptr<tenant::TenantService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::unique_ptr<serve::TcpClient> client;

  explicit Setup(std::uint64_t seed)
      : egress(netflow::EgressMap::for_pop_blocks(scenario.net.graph)),
        ingest_pool(std::thread::hardware_concurrency()) {
    const topo::Graph& graph = scenario.net.graph;
    task = core::janet_task(scenario.net);
    task_demands = core::janet_demands(scenario.net);
    task.interval_sec = kIntervalSec;
    for (double& expected : task.expected_packets)
      expected *= kIntervalSec / 300.0;
    problem.theta = kTheta;

    std::vector<routing::OdPair> ods;
    for (const traffic::Demand& d : task_demands) ods.push_back(d.od);

    // Failure candidates: links the task's routing uses whose loss
    // leaves every demand routable.
    const core::PlacementProblem base_problem(graph, task, scenario.loads,
                                              problem);
    std::vector<topo::LinkId> failable;
    for (const topo::LinkId link : base_problem.candidates()) {
      try {
        (void)routing::RoutingMatrix::single_path(graph, ods, {link});
        (void)traffic::link_loads(graph, scenario.demands, {link});
        failable.push_back(link);
      } catch (const Error&) {
      }
    }
    if (failable.empty()) throw Error("bin_cycle: no failable link");

    // The seeded day: diurnal swing, evening surge, failure window.
    Rng rng(seed);
    const double phase = rng.uniform(0.0, 2.0 * M_PI);
    const int surge_start = kDayBins / 2 + static_cast<int>(rng.uniform(0, 16));
    const int fail_start = static_cast<int>(rng.uniform(4, kDayBins / 2 - 6));
    const topo::LinkId failed_link =
        failable[static_cast<std::size_t>(rng.uniform(0, 1) *
                                          static_cast<double>(failable.size()))];
    // The pattern set is the same for every seed (five diurnal levels,
    // the surge level, the failure window); the seed places them in the
    // day. Flow populations are seeded per pattern, not per run, so the
    // packet volume of a day does not depend on the run's seed.
    constexpr int kSurgeLevel = 16;  // tenths
    std::map<std::pair<int, bool>, int> index;
    for (int b = 0; b < kDayBins; ++b) {
      int level = static_cast<int>(std::lround(
          10.0 + 2.0 * std::sin(phase + 2.0 * M_PI * b / kDayBins)));
      if (b >= surge_start && b < surge_start + 4) level = kSurgeLevel;
      const bool failure = b >= fail_start && b < fail_start + 5;
      if (failure) level = 10;
      day.push_back(level * 2 + (failure ? 1 : 0));
    }
    for (int level = 8; level <= 12; ++level) index.emplace(std::pair(level, false), 0);
    index.emplace(std::pair(kSurgeLevel, false), 0);
    index.emplace(std::pair(10, true), 0);
    for (auto& [key, slot] : index) {
      slot = static_cast<int>(patterns.size());
      Pattern pattern;
      pattern.scale = key.first / 10.0;
      if (key.second) pattern.failed.insert(failed_link);
      patterns.push_back(std::move(pattern));
    }
    for (int& d : day) d = index.at(std::pair(d / 2, d % 2 == 1));
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      Pattern& p = patterns[i];
      traffic::TrafficMatrix all = scenario.demands;
      for (traffic::Demand& d : all) d.pkt_per_sec *= p.scale;
      p.loads = traffic::link_loads(graph, all, p.failed);
      p.matrix.emplace(
          routing::RoutingMatrix::single_path(graph, ods, p.failed));
      traffic::TrafficMatrix demands = task_demands;
      for (traffic::Demand& d : demands) d.pkt_per_sec *= p.scale;
      ingest::SyntheticOptions synth;
      synth.flowgen.interval_sec = kIntervalSec;
      synth.seed = 7919 + i;
      p.traffic =
          std::make_unique<ingest::SyntheticTraffic>(*p.matrix, demands, synth);
    }

    // The loop's incumbent: a loads-only first bin solves from scratch.
    control::ControlConfig config;
    config.problem = problem;
    config.solver.max_iterations = kCertifyIterations;
    control::ControlDeps deps;
    deps.clock = &clock;
    loop = std::make_unique<control::ControlLoop>(graph, task, config, deps);
    control::BinObservation first;
    first.loads = patterns[static_cast<std::size_t>(day[0])].loads;
    first.failed = patterns[static_cast<std::size_t>(day[0])].failed;
    (void)loop->step(first);
    if (!loop->have_rates()) throw Error("bin_cycle: no incumbent");
    clock.advance(std::chrono::duration_cast<obs::Duration>(
        std::chrono::duration<double>(kIntervalSec)));

    registry.publish("geant", model(first.loads, first.failed));
    tenant::TenantServiceOptions options;
    options.solver.max_iterations = kCertifyIterations;
    service = std::make_unique<tenant::TenantService>(registry, options);
    server = std::make_unique<serve::TcpServer>(*service);
    client = std::make_unique<serve::TcpClient>("127.0.0.1", server->port());
  }

  tenant::TenantModel model(const traffic::LinkLoads& loads,
                            const routing::LinkSet& failed) const {
    tenant::TenantModel m;
    m.graph = scenario.net.graph;
    m.task = loop->tracker().tracked_task();
    m.loads = loads;
    m.problem = problem;
    m.problem.failed = failed;
    return m;
  }
};

}  // namespace

Result run_bin_cycle(const Args& args, Tracer& tracer) {
  Result result;
  std::unique_ptr<Setup> setup;
  const double setup_s = timed_setups<Setup>(
      3, 1.0, setup, [&] { return std::make_unique<Setup>(args.seed); });
  result.e2e["setup_s"] = setup_s;
  Setup& s = *setup;
  const topo::Graph& graph = s.scenario.net.graph;
  std::printf("  set-up %.3f s: %zu patterns over a %d-bin day\n", setup_s,
              s.patterns.size(), kDayBins);
  for (const int p : s.day) result.hash_u64(static_cast<std::uint64_t>(p));

  std::vector<double> op_ms, traced_ms, untraced_ms;
  std::vector<double> tcp_ms, tcp_queue_ms, tcp_solve_ms, batch_sizes, iters;
  std::uint64_t offered = 0, sampled = 0, exported = 0, dropped = 0;
  std::uint64_t missing = 0, estimated_ods = 0, rejected = 0;
  double ingest_run_ms = 0.0;
  double ratio_min = 1.0;
  const double hysteresis = s.loop->config().actuator.min_utility_gain;

  const Ns start = now_ns();
  const Ns deadline = start + static_cast<Ns>(args.seconds * 1e9);
  std::uint32_t bin = 0;
  while (args.ops > 0 ? bin < static_cast<std::uint32_t>(args.ops)
                      : now_ns() < deadline) {
    ++bin;
    const Pattern& p = s.patterns[static_cast<std::size_t>(
        s.day[static_cast<std::size_t>(bin) % kDayBins])];
    tracer.set_active(bin % 2 == 1);
    ++result.attempted;

    // ---- timed op ----
    const Ns t0 = now_ns();
    const std::int32_t root = tracer.open("op", bin);
    std::unique_ptr<ingest::IngestPipeline> pipeline;
    {
      Span span(tracer, "ingest.build", bin);
      ingest::IngestOptions options;
      options.collector.bin_sec = kIntervalSec;
      options.producers = 2;
      options.expected_flows_per_link = 1 << 12;
      options.seed = args.seed * 1000003ULL + bin;
      ingest::IngestDeps deps;
      deps.pool = &s.ingest_pool;
      pipeline = std::make_unique<ingest::IngestPipeline>(
          s.loop->rates(), s.egress, options, deps);
      pipeline->add_sources(p.traffic->sources(s.loop->rates()));
    }
    ingest::IngestStats stats;
    {
      Span span(tracer, "ingest.run", bin);
      stats = pipeline->run();
    }
    std::vector<double> estimates;
    {
      Span span(tracer, "ingest.estimate", bin);
      estimates = ingest::od_rate_estimates(pipeline->collector(), *p.matrix,
                                            s.loop->rates(), 0, kIntervalSec);
    }
    {
      Span span(tracer, "ingest.release", bin);
      pipeline.reset();
    }
    control::BinObservation observation;
    {
      Span span(tracer, "glue.observation", bin);
      observation.loads = p.loads;
      observation.od_rates = estimates;
      observation.failed = p.failed;
    }
    control::StepResult step;
    {
      Span span(tracer, "control.step", bin);
      step = s.loop->step(observation);
    }
    tenant::TenantModel model;
    {
      Span span(tracer, "glue.model", bin);
      s.clock.advance(std::chrono::duration_cast<obs::Duration>(
          std::chrono::duration<double>(kIntervalSec)));
      model = s.model(p.loads, p.failed);
    }
    {
      Span span(tracer, "tenant.publish", bin);
      (void)s.registry.publish("geant", std::move(model));
    }
    serve::Request request;
    {
      Span span(tracer, "glue.request", bin);
      request.id = bin;
      request.kind = serve::RequestKind::kAccuracyReport;
      request.tenant = "geant";
      request.warm_start = s.loop->rates();
    }
    serve::Response response;
    {
      Span span(tracer, "serve.tcp", bin);
      const Ns sent = now_ns();
      response = s.client->send(std::move(request)).get();
      const Ns end = now_ns();
      tcp_ms.push_back(ms_between(sent, end));
      const Ns solve_ns = static_cast<Ns>(response.solve_ms * 1e6);
      const Ns queue_ns = static_cast<Ns>(response.queue_ms * 1e6);
      tracer.add("serve.queue", bin, span.index(), end - solve_ns - queue_ns,
                 end - solve_ns);
      tracer.add("core.solve", bin, span.index(), end - solve_ns, end);
    }
    tracer.close(root);
    const double ms = ms_between(t0, now_ns());
    // ---- end of timed op ----

    op_ms.push_back(ms);
    (tracer.active() ? traced_ms : untraced_ms).push_back(ms);
    offered += stats.offered_packets;
    sampled += stats.sampled_packets;
    exported += stats.exported_records;
    dropped += stats.dropped_packets;
    ingest_run_ms += stats.elapsed_sec * 1e3;
    for (const double e : estimates) {
      ++estimated_ods;
      if (e == ingest::kNoEstimate) ++missing;
    }
    if (step.resolved) iters.push_back(step.solve_iterations);
    result.counts[std::string("resolve_reason.") +
                  control::to_string(step.reason)] += 1;
    if (response.status != serve::ResponseStatus::kOk) ++rejected;
    tcp_queue_ms.push_back(response.queue_ms);
    tcp_solve_ms.push_back(response.solve_ms);
    batch_sizes.push_back(response.batch_size);

    // Gates: lossless ingest, a certified feasible TCP answer that
    // agrees with the loop's placement, and its quality vs a cold exact
    // re-solve of the same problem.
    bool ok = stats.dropped_packets == 0 &&
              stats.offered_packets ==
                  stats.consumed_packets + stats.dropped_packets;
    result.gate(ok, "ingest accounting: bin " + std::to_string(bin));
    const bool answered = response.status == serve::ResponseStatus::kOk &&
                          response.solutions.size() == 1;
    result.gate(answered, "tcp answer: bin " + std::to_string(bin) + " " +
                              serve::to_string(response.status));
    if (answered) {
      core::ProblemOptions options = s.problem;
      options.failed = p.failed;
      const core::PlacementProblem problem(
          graph, s.loop->tracker().tracked_task(), p.loads, options);
      const core::PlacementSolution& answer = response.solutions[0];
      ok = check_placement(result, "bin_cycle answer", problem, answer) && ok;
      // The loop's placement in force, on the same problem: equal to the
      // answer within solver tolerance when the bin pushed fresh rates,
      // within the hysteresis threshold when a re-solve was held, and
      // never better than the answer when the policy did not re-solve.
      const double loop_utility =
          core::evaluate_rates(problem, s.loop->rates()).total_utility;
      const double tol = 1e-6 * std::abs(answer.total_utility);
      const double gain = answer.total_utility - loop_utility;
      const bool agrees =
          step.reconfigured ? std::abs(gain) <= tol
          : step.resolved   ? gain >= -tol && gain <= hysteresis + tol
                            : gain >= -tol;
      result.gate(agrees, "loop agreement: bin " + std::to_string(bin) +
                              " gain " + std::to_string(gain));
      ok = ok && agrees;
      const double reference = reference_utility(result, problem);
      ratio_min = std::min(ratio_min, answer.total_utility / reference);
    } else {
      ok = false;
    }
    if (!ok) ++result.failed;
  }
  closed_loop_metrics(result, op_ms, kLimitMs);
  result.e2e["utility_ratio_min"] = ratio_min;

  const tenant::SolveCache& cache = s.service->cache();
  result.counts["bins"] = s.loop->bins();
  result.counts["control_resolves"] = s.loop->resolves();
  result.counts["control_pushes"] = s.loop->reconfigurations();
  result.counts["control_solve_iters"] = std::accumulate(
      iters.begin(), iters.end(), 0.0);
  result.counts["ingest_offered"] = static_cast<double>(offered);
  result.counts["ingest_sampled"] = static_cast<double>(sampled);
  result.counts["ingest_exported"] = static_cast<double>(exported);
  result.counts["cache_hits"] = static_cast<double>(cache.hits());
  result.counts["cache_misses"] = static_cast<double>(cache.misses());
  result.counts["cache_warm_starts"] = static_cast<double>(cache.warm_starts());
  result.counts["solver_invocations"] =
      static_cast<double>(s.service->solver_invocations());

  if (tracer.enabled()) {
    auto& L = result.layer;
    L["ingest.run_ms"] = median(tracer.durations_ms("ingest.run"));
    L["ingest.pkts_per_s"] =
        ingest_run_ms > 0.0 ? static_cast<double>(offered) / (ingest_run_ms * 1e-3)
                            : 0.0;
    L["ingest.build_ms"] = median(tracer.durations_ms("ingest.build"));
    L["ingest.estimate_ms"] = median(tracer.durations_ms("ingest.estimate"));
    L["ingest.drop_frac"] =
        offered > 0 ? static_cast<double>(dropped) / static_cast<double>(offered)
                    : 0.0;
    L["ingest.missing_od_frac"] =
        estimated_ods > 0
            ? static_cast<double>(missing) / static_cast<double>(estimated_ods)
            : 0.0;
    L["control.step_ms"] = median(tracer.durations_ms("control.step"));
    const double bins = s.loop->bins();
    const double resolves = s.loop->resolves();
    L["control.resolve_frac"] = bins > 0 ? resolves / bins : 0.0;
    L["control.push_frac"] =
        resolves > 0 ? s.loop->reconfigurations() / resolves : 0.0;
    L["control.solve_iters"] = mean(iters);
    L["control.expired"] = s.loop->solve_expirations();
    L["tenant.publish_ms"] = median(tracer.durations_ms("tenant.publish"));
    const double lookups = static_cast<double>(cache.hits() + cache.misses());
    L["tenant.cache_hit_frac"] =
        lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0;
    L["tenant.warm_frac"] =
        cache.misses() > 0 ? static_cast<double>(cache.warm_starts()) /
                                 static_cast<double>(cache.misses())
                           : 0.0;
    L["tenant.evictions_per_kreq"] =
        1000.0 * static_cast<double>(cache.evictions()) /
        static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
    L["tenant.solves_per_req"] =
        static_cast<double>(s.service->solver_invocations()) /
        static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
    L["serve.queue_ms_p50"] = median(tcp_queue_ms);
    L["serve.queue_ms_tail"] = tail_of(tcp_queue_ms).value;
    L["serve.solve_ms_p50"] = median(tcp_solve_ms);
    L["serve.batch_size_mean"] = mean(batch_sizes);
    L["serve.rejected"] = static_cast<double>(rejected);
    L["serve.protocol_errors"] =
        static_cast<double>(s.server->protocol_errors());
    std::vector<double> overhead;
    for (std::size_t i = 0; i < tcp_ms.size(); ++i)
      overhead.push_back(tcp_ms[i] - tcp_queue_ms[i] - tcp_solve_ms[i]);
    L["serve.overhead_ms_p50"] = median(overhead);
    ledger_metrics(result, tracer, traced_ms, untraced_ms);
  }
  std::printf("  %u bins: %d re-solves, %d pushes, %.0f packets/bin\n", bin,
              s.loop->resolves(), s.loop->reconfigurations(),
              bin > 0 ? static_cast<double>(offered) / bin : 0.0);
  return result;
}

}  // namespace perfbench
