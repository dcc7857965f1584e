#include "core/scale_scenario.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace netmon::core {

ScaleScenario make_scale_scenario(const ScaleScenarioOptions& options) {
  NETMON_REQUIRE(options.background_utilization > 0.0 &&
                     options.background_utilization <= 1.0,
                 "background utilization must be in (0, 1]");
  NETMON_REQUIRE(options.interval_sec > 0.0, "interval must be positive");

  ScaleScenario scenario;
  scenario.net = topo::make_hierarchical(options.hierarchy);
  scenario.demands = traffic::gravity_fanout(scenario.net, options.fanout);

  scenario.task.interval_sec = options.interval_sec;
  scenario.task.ods.reserve(scenario.demands.size());
  scenario.task.expected_packets.reserve(scenario.demands.size());
  for (const traffic::Demand& d : scenario.demands) {
    scenario.task.ods.push_back(d.od);
    // SreUtility needs expected interval sizes >= 2 packets; the fan-out
    // floor already aims there, clamp to be safe against odd options.
    scenario.task.expected_packets.push_back(
        std::max(d.pkt_per_sec * options.interval_sec, 2.0));
  }

  scenario.routing = routing::RoutingMatrix::single_path(scenario.net.graph,
                                                         scenario.task.ods);

  // Task loads off the routing matrix. Fan-out demands are sorted by
  // (src, dst), so row order is the order traffic::link_loads accumulates
  // in (sources ascending, demand order within a source) and every
  // per-link sum is the same floating-point sum.
  traffic::LinkLoads task_loads(scenario.net.graph.link_count(), 0.0);
  for (std::size_t k = 0; k < scenario.demands.size(); ++k) {
    for (const auto& [link, fraction] : scenario.routing.row(k))
      task_loads[link] += scenario.demands[k].pkt_per_sec;
  }

  scenario.loads = traffic::background_loads(scenario.net.graph,
                                             options.background_utilization);
  for (std::size_t i = 0; i < scenario.loads.size(); ++i)
    scenario.loads[i] += task_loads[i];
  return scenario;
}

double default_scale_theta(const ScaleScenario& scenario, double fraction) {
  NETMON_REQUIRE(fraction > 0.0 && fraction <= 1.0,
                 "theta fraction must be in (0, 1]");
  // Maximum feasible budget over the candidate set: the links the task
  // traverses, each sampled at alpha = 1 for a full interval.
  double max_budget = 0.0;
  for (topo::LinkId id : scenario.routing.links_used())
    max_budget += scenario.loads[id] * scenario.task.interval_sec;
  return fraction * max_budget;
}

PlacementProblem make_problem(const ScaleScenario& scenario,
                              ProblemOptions options) {
  if (options.theta <= 0.0)
    options.theta = default_scale_theta(scenario);
  if (options.ecmp)
    return PlacementProblem(scenario.net.graph, scenario.task, scenario.loads,
                            std::move(options));
  routing::RoutingMatrix matrix = routing::RoutingMatrix::reroute(
      scenario.routing, scenario.net.graph, options.failed);
  return PlacementProblem(scenario.net.graph, scenario.task, scenario.loads,
                          std::move(options), std::move(matrix));
}

}  // namespace netmon::core
