#include "ingest/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "control/loop.hpp"
#include "control/tracker.hpp"
#include "helpers.hpp"
#include "ingest/synthetic.hpp"
#include "obs/metrics.hpp"
#include "traffic/link_load.hpp"
#include "util/error.hpp"

namespace netmon::ingest {
namespace {

// The ingest estimator's missing-value sentinel must drop straight into
// control::BinObservation::od_rates.
static_assert(kNoEstimate == control::kMissing);

struct LineScenario {
  topo::Graph graph = test::line_graph();
  traffic::TrafficMatrix tm{{{0, 3}, 120.0}, {{0, 1}, 240.0}};
  routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 3}, {0, 1}});
  netflow::EgressMap egress = netflow::EgressMap::for_pop_blocks(graph);
  sampling::RateVector rates;
  SyntheticOptions synth;
  topo::LinkId ab, bc;

  LineScenario() {
    ab = *graph.find_link(0, 1);
    bc = *graph.find_link(1, 2);
    rates.assign(graph.link_count(), 0.0);
    rates[ab] = 0.20;
    rates[bc] = 0.10;
    synth.flowgen.interval_sec = 60.0;
  }
};

/// Six single-hop ODs, one per directed link of the line, all monitored;
/// A->B carries 20x the packets of each other link, so its source
/// outweighs the other five together.
LineScenario skewed_scenario() {
  LineScenario s;
  const std::vector<routing::OdPair> ods = {{0, 1}, {1, 0}, {1, 2},
                                            {2, 1}, {2, 3}, {3, 2}};
  s.tm.clear();
  for (const routing::OdPair& od : ods)
    s.tm.push_back({od, od == ods.front() ? 2000.0 : 100.0});
  s.matrix = routing::RoutingMatrix::single_path(s.graph, ods);
  s.rates.assign(s.graph.link_count(), 0.1);
  s.synth.flowgen.interval_sec = 20.0;
  return s;
}

/// Forwards to a wrapped source but gives no packet-count hint, so all
/// sources weigh the same and producers take them round-robin.
class HintlessSource final : public PacketSource {
 public:
  explicit HintlessSource(std::unique_ptr<PacketSource> inner)
      : inner_(std::move(inner)) {}
  topo::LinkId link() const noexcept override { return inner_->link(); }
  std::size_t next_batch(PacketRecord* out, std::size_t max) override {
    return inner_->next_batch(out, max);
  }
  bool exhausted() const noexcept override { return inner_->exhausted(); }

 private:
  std::unique_ptr<PacketSource> inner_;
};

struct RunConfig {
  unsigned producers = 1;
  unsigned pool_threads = 0;  // 0 = no pool (inline consumer)
  std::size_t ring = 0;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Hide the sources' packet-count hints (round-robin producers).
  bool hintless = false;
};

struct RunOutcome {
  IngestStats stats;
  std::vector<double> estimates;
  std::uint64_t unattributed = 0;
};

RunOutcome run_pipeline(const LineScenario& s, const SyntheticTraffic& traffic,
                        RunConfig config, obs::MetricsRegistry* metrics = nullptr) {
  IngestOptions options;
  options.producers = config.producers;
  options.overflow = config.overflow;
  options.ring_capacity = config.ring != 0 ? config.ring : 4096;
  options.collector.bin_sec = s.synth.flowgen.interval_sec;
  IngestDeps deps;
  deps.metrics = metrics;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (config.pool_threads != 0) {
    pool = std::make_unique<runtime::ThreadPool>(config.pool_threads);
    deps.pool = pool.get();
  }
  IngestPipeline pipeline(s.rates, s.egress, options, deps);
  for (auto& source : traffic.sources(s.rates)) {
    if (config.hintless)
      source = std::make_unique<HintlessSource>(std::move(source));
    pipeline.add_source(std::move(source));
  }
  RunOutcome outcome;
  outcome.stats = pipeline.run();
  outcome.estimates =
      od_rate_estimates(pipeline.collector(), s.matrix, s.rates, 0,
                        s.synth.flowgen.interval_sec);
  outcome.unattributed = pipeline.collector().unattributed_records();
  return outcome;
}

TEST(IngestPipeline, BlockingPolicyLosesNothing) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome r = run_pipeline(s, traffic, {.producers = 2,
                                                 .pool_threads = 2,
                                                 .ring = 256});
  EXPECT_EQ(r.stats.sources, 2u);
  EXPECT_EQ(r.stats.offered_packets,
            traffic.packets_on(s.ab) + traffic.packets_on(s.bc));
  EXPECT_EQ(r.stats.consumed_packets, r.stats.offered_packets);
  EXPECT_EQ(r.stats.dropped_packets, 0u);
  EXPECT_EQ(r.stats.drop_rate(), 0.0);
  EXPECT_GT(r.stats.sampled_packets, 0u);
  EXPECT_GT(r.stats.exported_records, 0u);
  EXPECT_EQ(r.unattributed, 0u);
}

TEST(IngestPipeline, SamplingRateHonored) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome r = run_pipeline(s, traffic, {});
  const double expected =
      0.20 * static_cast<double>(traffic.packets_on(s.ab)) +
      0.10 * static_cast<double>(traffic.packets_on(s.bc));
  const double sampled = static_cast<double>(r.stats.sampled_packets);
  EXPECT_NEAR(sampled, expected, 4.0 * std::sqrt(expected) + 1.0);
}

TEST(IngestPipeline, EstimatesRecoverOdRates) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome r = run_pipeline(s, traffic, {.pool_threads = 2});
  const double interval = s.synth.flowgen.interval_sec;
  for (std::size_t k = 0; k < 2; ++k) {
    const double actual_rate =
        static_cast<double>(traffic::total_packets(traffic.flows()[k])) /
        interval;
    const double rho = sampling::effective_rate_approx(s.matrix, k, s.rates);
    ASSERT_GT(rho, 0.0);
    // 4-sigma band of the binomial estimator, in pkt/s.
    const double sigma =
        std::sqrt(actual_rate * interval / rho) / interval;
    EXPECT_NEAR(r.estimates[k], actual_rate, 4.0 * sigma + 1.0)
        << "OD " << k;
  }
}

// The acceptance criterion: for a fixed seed the ingest-derived
// estimates are bit-identical at every producer partition and consumer
// thread count (blocking policy).
TEST(IngestPipeline, DeterministicAcrossThreadCounts) {
  // The two-source line, and six sources where one outweighs the rest:
  // there balanced and round-robin producers partition differently.
  for (const LineScenario& s : {LineScenario{}, skewed_scenario()}) {
    SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
    const RunOutcome base = run_pipeline(s, traffic, {});
    const RunConfig variants[] = {
        {.producers = 2, .pool_threads = 1},
        {.producers = 1, .pool_threads = 2},
        {.producers = 2, .pool_threads = 4, .ring = 128},
        {.producers = 4, .pool_threads = 3, .ring = 64},
        // Round-robin producers (no hints) give the same answers as the
        // packet-balanced ones.
        {.producers = 2, .pool_threads = 2, .hintless = true},
        {.producers = 3, .pool_threads = 1, .ring = 64, .hintless = true},
    };
    for (const RunConfig& config : variants) {
      const RunOutcome r = run_pipeline(s, traffic, config);
      EXPECT_EQ(r.stats.offered_packets, base.stats.offered_packets);
      EXPECT_EQ(r.stats.sampled_packets, base.stats.sampled_packets);
      EXPECT_EQ(r.stats.exported_records, base.stats.exported_records);
      ASSERT_EQ(r.estimates.size(), base.estimates.size());
      for (std::size_t k = 0; k < r.estimates.size(); ++k)
        EXPECT_EQ(r.estimates[k], base.estimates[k])
            << "OD " << k << " of " << r.estimates.size()
            << " at producers=" << config.producers
            << " pool=" << config.pool_threads
            << " hintless=" << config.hintless;
    }
  }
}

/// Sum of the sources' packets per producer under round-robin over the
/// pipeline's source order (link order, as SyntheticTraffic::sources
/// returns them); the largest.
std::uint64_t round_robin_max(const SyntheticTraffic& traffic,
                              const sampling::RateVector& rates,
                              unsigned producers) {
  std::vector<std::uint64_t> load(producers, 0);
  std::size_t index = 0;
  for (const auto& source : traffic.sources(rates))
    load[index++ % producers] += traffic.packets_on(source->link());
  return *std::max_element(load.begin(), load.end());
}

TEST(IngestPipeline, HeaviestSourceGetsAProducerToItself) {
  const LineScenario s = skewed_scenario();
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const std::uint64_t heavy = traffic.packets_on(s.ab);
  std::uint64_t total = 0;
  for (const auto& source : traffic.sources(s.rates))
    total += traffic.packets_on(source->link());
  ASSERT_GT(heavy, total - heavy) << "A->B must outweigh the rest";

  const RunOutcome balanced =
      run_pipeline(s, traffic, {.producers = 2, .pool_threads = 2});
  EXPECT_EQ(balanced.stats.offered_packets, total);
  // The heaviest source runs alone: its producer replays exactly its
  // packets, and the other producer all the rest.
  EXPECT_EQ(balanced.stats.max_producer_packets, heavy);
  // Round-robin would have stacked two light sources on its producer.
  EXPECT_GT(round_robin_max(traffic, s.rates, 2), heavy);
  // With three producers the light five share the other two.
  const RunOutcome three =
      run_pipeline(s, traffic, {.producers = 3, .pool_threads = 2});
  EXPECT_EQ(three.stats.max_producer_packets, heavy);

  // Same answers as one producer and as round-robin, bit for bit.
  const RunOutcome single = run_pipeline(s, traffic, {.pool_threads = 2});
  const RunOutcome round_robin = run_pipeline(
      s, traffic, {.producers = 2, .pool_threads = 2, .hintless = true});
  EXPECT_EQ(single.stats.max_producer_packets, total);
  for (const RunOutcome* other : {&single, &round_robin, &three}) {
    EXPECT_EQ(other->stats.offered_packets, balanced.stats.offered_packets);
    EXPECT_EQ(other->stats.sampled_packets, balanced.stats.sampled_packets);
    EXPECT_EQ(other->stats.exported_records,
              balanced.stats.exported_records);
    EXPECT_EQ(other->estimates, balanced.estimates);
  }
}

TEST(IngestPipeline, HintlessSourcesKeepRoundRobin) {
  const LineScenario s = skewed_scenario();
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  for (const unsigned producers : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << producers << " producers");
    const RunOutcome r = run_pipeline(
        s, traffic,
        {.producers = producers, .pool_threads = 2, .hintless = true});
    EXPECT_EQ(r.stats.max_producer_packets,
              round_robin_max(traffic, s.rates, producers));
  }
}

TEST(IngestPipeline, DropPolicyKeepsTheAccountingInvariant) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome r = run_pipeline(
      s, traffic,
      {.producers = 2, .pool_threads = 1, .ring = 16,
       .overflow = OverflowPolicy::kDrop});
  EXPECT_EQ(r.stats.offered_packets,
            r.stats.consumed_packets + r.stats.dropped_packets);
  EXPECT_GE(r.stats.drop_rate(), 0.0);
  EXPECT_LE(r.stats.drop_rate(), 1.0);
}

TEST(IngestPipeline, MetricsSurfaceTheRun) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  obs::MetricsRegistry metrics;
  const RunOutcome r =
      run_pipeline(s, traffic, {.pool_threads = 2}, &metrics);
  const obs::RegistrySnapshot snap = metrics.snapshot();
  const obs::MetricSnapshot* packets =
      snap.find("netmon_ingest_packets_total");
  ASSERT_NE(packets, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(packets->value),
            r.stats.offered_packets);
  const obs::MetricSnapshot* sampled =
      snap.find("netmon_ingest_sampled_total");
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(sampled->value),
            r.stats.sampled_packets);
  const obs::MetricSnapshot* occupancy =
      snap.find("netmon_ingest_ring_occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_GT(occupancy->count, 0u);
  EXPECT_NE(snap.find("netmon_ingest_pkts_per_sec"), nullptr);
  // One producer replays every packet: the critical path is all of them.
  const obs::MetricSnapshot* busiest =
      snap.find("netmon_ingest_producer_packets_max");
  ASSERT_NE(busiest, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(busiest->value),
            r.stats.max_producer_packets);
  EXPECT_EQ(r.stats.max_producer_packets, r.stats.offered_packets);
}

TEST(IngestPipeline, RunIsOneShot) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  IngestOptions options;
  options.collector.bin_sec = s.synth.flowgen.interval_sec;
  IngestPipeline pipeline(s.rates, s.egress, options);
  pipeline.add_sources(traffic.sources(s.rates));
  pipeline.run();
  EXPECT_THROW(pipeline.run(), Error);
}

TEST(IngestPipeline, RejectsSourceOnUnmonitoredLink) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  sampling::RateVector no_rates(s.graph.link_count(), 0.0);
  IngestPipeline pipeline(no_rates, s.egress);
  EXPECT_THROW(pipeline.add_source(traffic.source(s.ab)), Error);
}

// Closes the loop of the issue: ingest-derived estimates drive
// control::ControlLoop exactly like simulator-derived ones.
TEST(IngestPipeline, EstimatesDriveTheControlLoop) {
  LineScenario s;
  core::MeasurementTask task;
  task.ods = {{0, 3}, {0, 1}};
  task.interval_sec = 300.0;
  for (const auto& demand : s.tm)
    task.expected_packets.push_back(demand.pkt_per_sec * task.interval_sec);
  control::ControlLoop loop(s.graph, task);

  // Bin 1: loads only; the loop solves and installs sampling rates.
  control::BinObservation first;
  first.loads = traffic::link_loads(s.graph, s.tm);
  const control::StepResult r1 = loop.step(first);
  EXPECT_TRUE(r1.reconfigured);
  ASSERT_TRUE(loop.have_rates());

  // Bin 2: replay the interval through ingest under the installed
  // rates and feed the resulting estimates back.
  s.rates = loop.rates();
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome a =
      run_pipeline(s, traffic, {.producers = 2, .pool_threads = 2});
  const RunOutcome b = run_pipeline(s, traffic, {.producers = 1});
  ASSERT_EQ(a.estimates.size(), task.ods.size());
  EXPECT_EQ(a.estimates, b.estimates);  // deterministic hand-off

  control::BinObservation second;
  second.loads = first.loads;
  second.od_rates = a.estimates;
  const control::StepResult r2 = loop.step(second);
  EXPECT_EQ(r2.bin, 2);
  EXPECT_FALSE(r2.skipped);
  EXPECT_GT(r2.utility, 0.0);

  // The estimates the loop consumed track the true rates.
  for (std::size_t k = 0; k < task.ods.size(); ++k) {
    if (a.estimates[k] == kNoEstimate) continue;
    const double actual = s.tm[k].pkt_per_sec;
    EXPECT_NEAR(a.estimates[k] / actual, 1.0, 0.5) << "OD " << k;
  }
}

}  // namespace
}  // namespace netmon::ingest
