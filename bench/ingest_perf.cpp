// PERF — ingest pipeline throughput. Replays one interval of GEANT-wide
// synthetic traffic (gravity background + JANET task demands) through
// the full packet path — per-link sources -> SPSC rings -> per-link
// samplers -> flow tables — and reports sustained packets/sec for the
// blocking (lossless) policy, the drop-policy accounting, and the raw
// ring transfer rate. Emits BENCH_ingest.json rows:
//   throughput — pkts/sec through the full pipeline (kBlock, best of 3),
//                drop_rate (must be 0), offered/exported volumes
//   drop       — same instance under kDrop with a tiny ring: the
//                offered == consumed + dropped invariant, observed rate
//   ring       — raw 2-thread SPSC transfer rate, records/sec
//   replay     — the heaviest monitored link's calendar replay alone
//                (one thread, no ring, best of 3), ns/packet: the
//                per-producer cost that bounds the pipeline's wall time
// scripts/perf_gate.sh holds throughput to a >= 1M pkts/sec floor (on
// machines with >= 4 hardware threads), drop_rate to exactly 0, and
// the throughput and replay rows to a regression band against the
// baseline.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "netmon.hpp"
#include "util/bench_report.hpp"

namespace {

using namespace netmon;

struct Instance {
  core::GeantScenario scenario = core::make_geant_scenario();
  routing::RoutingMatrix matrix;
  netflow::EgressMap egress;
  ingest::SyntheticTraffic traffic;
  sampling::RateVector rates;

  static routing::RoutingMatrix demand_matrix(const core::GeantScenario& s) {
    std::vector<routing::OdPair> ods;
    ods.reserve(s.demands.size());
    for (const traffic::Demand& d : s.demands) ods.push_back(d.od);
    return routing::RoutingMatrix::single_path(s.net.graph, ods);
  }

  static ingest::SyntheticOptions synth_options() {
    ingest::SyntheticOptions options;
    // ~4 trace-seconds of the 1.4M pkt/s network: several million
    // packets total, a few hundred thousand per monitored link.
    options.flowgen.interval_sec = 4.0;
    return options;
  }

  Instance()
      : matrix(demand_matrix(scenario)),
        egress(netflow::EgressMap::for_pop_blocks(scenario.net.graph)),
        traffic(matrix, scenario.demands, synth_options()) {
    // Monitor the 8 busiest links at a deployment-plausible 5%.
    std::vector<topo::LinkId> links(scenario.net.graph.link_count());
    std::iota(links.begin(), links.end(), topo::LinkId{0});
    std::sort(links.begin(), links.end(), [&](topo::LinkId a, topo::LinkId b) {
      return traffic.packets_on(a) > traffic.packets_on(b);
    });
    rates.assign(scenario.net.graph.link_count(), 0.0);
    for (std::size_t i = 0; i < 8 && i < links.size(); ++i)
      rates[links[i]] = 0.05;
  }

  ingest::IngestStats run(runtime::ThreadPool& pool,
                          ingest::OverflowPolicy overflow,
                          std::size_t ring_capacity) {
    ingest::IngestOptions options;
    options.overflow = overflow;
    options.ring_capacity = ring_capacity;
    options.producers = 2;
    options.expected_flows_per_link = 1 << 14;
    options.collector.bin_sec = 4.0;
    ingest::IngestDeps deps;
    deps.pool = &pool;
    ingest::IngestPipeline pipeline(rates, egress, options, deps);
    pipeline.add_sources(traffic.sources(rates));
    return pipeline.run();
  }
};

/// Raw SPSC transfer rate: one producer, one consumer, batch 256.
double ring_records_per_sec() {
  constexpr std::uint64_t kTotal = 1 << 24;
  ingest::SpscRing<ingest::PacketRecord> ring(1 << 16);
  StopWatch watch;
  std::thread producer([&ring] {
    ingest::PacketRecord batch[256];
    std::uint64_t sent = 0;
    while (sent < kTotal) {
      std::size_t n = 0;
      while (n == 0) n = ring.try_push(batch, 256);
      sent += n;
    }
  });
  ingest::PacketRecord out[256];
  std::uint64_t got = 0;
  while (got < kTotal) got += ring.pop(out, 256);
  producer.join();
  return static_cast<double>(kTotal) / (watch.elapsed_ms() * 1e-3);
}

/// One source drained alone on this thread: ns per packet, best of 3
/// (a fresh source each round, construction not timed).
double replay_ns_per_packet(const ingest::SyntheticTraffic& traffic,
                            topo::LinkId link) {
  std::vector<ingest::PacketRecord> batch(256);
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    const auto source = traffic.source(link);
    std::uint64_t packets = 0;
    StopWatch watch;
    while (!source->exhausted())
      packets += source->next_batch(batch.data(), batch.size());
    const double ns =
        watch.elapsed_ms() * 1e6 / static_cast<double>(packets);
    if (round == 0 || ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main() {
  const unsigned threads = runtime::threads_from_env();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("== ingest_perf: packet pipeline throughput (%u threads) ==\n",
              threads);

  Instance instance;
  runtime::ThreadPool pool(threads);
  std::uint64_t offered = 0;
  for (topo::LinkId l = 0; l < instance.rates.size(); ++l)
    if (instance.rates[l] > 0.0) offered += instance.traffic.packets_on(l);
  std::printf("  instance: %zu monitored links, %llu packets offered\n",
              instance.traffic.sources(instance.rates).size(),
              static_cast<unsigned long long>(offered));

  // Lossless throughput: best of 3 (scheduling noise only slows a run).
  ingest::IngestStats best{};
  for (int round = 0; round < 3; ++round) {
    const ingest::IngestStats stats =
        instance.run(pool, ingest::OverflowPolicy::kBlock, 1 << 16);
    if (round == 0 || stats.packets_per_sec > best.packets_per_sec)
      best = stats;
  }
  std::printf(
      "  throughput: %.2fM pkts/sec (drop rate %.4f, %llu sampled, "
      "%llu records exported, %.1f ms)\n",
      best.packets_per_sec * 1e-6, best.drop_rate(),
      static_cast<unsigned long long>(best.sampled_packets),
      static_cast<unsigned long long>(best.exported_records),
      best.elapsed_sec * 1e3);

  // Drop policy on a deliberately tiny ring: accounting must close.
  const ingest::IngestStats lossy =
      instance.run(pool, ingest::OverflowPolicy::kDrop, 1 << 10);
  const bool accounted =
      lossy.offered_packets == lossy.consumed_packets + lossy.dropped_packets;
  std::printf("  drop policy: %.2fM pkts/sec, drop rate %.4f, %s\n",
              lossy.packets_per_sec * 1e-6, lossy.drop_rate(),
              accounted ? "accounting closed" : "ACCOUNTING BROKEN");

  const double ring_rate = ring_records_per_sec();
  std::printf("  raw ring: %.1fM records/sec (2 threads, batch 256)\n",
              ring_rate * 1e-6);

  topo::LinkId heaviest = 0;
  for (topo::LinkId l = 0; l < instance.rates.size(); ++l)
    if (instance.traffic.packets_on(l) > instance.traffic.packets_on(heaviest))
      heaviest = l;
  const double replay_ns = replay_ns_per_packet(instance.traffic, heaviest);
  std::printf(
      "  heaviest link replay: %.1f ns/packet (%llu packets, 1 thread)\n",
      replay_ns,
      static_cast<unsigned long long>(instance.traffic.packets_on(heaviest)));

  BenchReport report("ingest_perf", threads);
  report.result("throughput")
      .metric("ingest_pkts_per_sec", best.packets_per_sec)
      .metric("ingest_drop_rate", best.drop_rate())
      .metric("offered_packets", static_cast<double>(best.offered_packets))
      .metric("exported_records",
              static_cast<double>(best.exported_records))
      .metric("elapsed_ms", best.elapsed_sec * 1e3)
      .metric("hw_threads", static_cast<double>(hw));
  report.result("drop")
      .metric("drop_pkts_per_sec", lossy.packets_per_sec)
      .metric("drop_rate", lossy.drop_rate())
      .metric("drop_accounting_closed", accounted ? 1.0 : 0.0);
  report.result("ring").metric("ring_records_per_sec", ring_rate);
  report.result("replay")
      .metric("replay_ns_per_packet", replay_ns)
      .metric("replay_packets",
              static_cast<double>(instance.traffic.packets_on(heaviest)));
  report.emit();
  return accounted ? 0 : 1;
}
