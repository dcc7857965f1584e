// IngestPipeline: packet sources -> SPSC rings -> sampled per-link flow
// tables -> exporter/collector, on the runtime pool.
//
//   PacketSource (per link: synthetic replay or pcap trace)
//        |          producer threads; sources go heaviest first (by
//        |          expected_packets) to the least-loaded producer;
//        v          one producer owns a source, so each ring stays SPSC
//   SpscRing<PacketRecord>   (one per source; NETMON_INGEST_RING slots;
//        |                    overflow policy: block = backpressure,
//        v                    drop = counted in dropped_packets)
//   consumer shards on runtime::ThreadPool — each shard owns a disjoint
//   set of sources and, per packet: monotonic-clamps the timestamp,
//   applies the configured sampling:: policy (per-link sampler seeded
//   via Rng::substream(link id)), and folds sampled packets into that
//   link's netflow::FlowTable, whose idle/active/FIN expiries export
//   records into a per-source buffer
//        |
//        v
//   netflow::Collector (5-minute bins, OD attribution via EgressMap)
//        -> od_rate_estimates() -> control::BinObservation::od_rates
//
// Determinism: all per-packet state (sampler stream, flow table, export
// buffer) is keyed by the source, never by the worker, and the collector
// aggregation is commutative sums — so for a fixed seed the final
// estimates are identical across runs, producer partitions, and
// consumer thread counts. (Under the kDrop policy the *drop pattern* is
// timing-dependent; use kBlock when bit-reproducibility matters.)
//
// The pipeline assumes a dedicated (otherwise idle) pool: under the
// blocking overflow policy every consumer shard must eventually get a
// worker (shard count is clamped to the pool size; the calling thread
// helps via TaskGroup), which unrelated long-running pool tasks could
// prevent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ingest/source.hpp"
#include "ingest/spsc_ring.hpp"
#include "netflow/collector.hpp"
#include "netflow/flow_table.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sampling/effective_rate.hpp"
#include "sampling/sampler.hpp"

namespace netmon::ingest {

/// What a producer does when a ring is full.
enum class OverflowPolicy : std::uint8_t {
  /// Retry until the consumer drains (backpressure; deterministic).
  kBlock,
  /// Drop the overflow and count it (a capture NIC's behavior).
  kDrop,
};

/// Pipeline configuration.
struct IngestOptions {
  netflow::FlowTableOptions flow_table;
  netflow::CollectorOptions collector;
  /// Per-link sampler policy (Bernoulli = the paper's i.i.d. model).
  sampling::SamplerKind sampler = sampling::SamplerKind::kBernoulli;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Ring slots per source; 0 = NETMON_INGEST_RING env or 8192. Rounded
  /// up to a power of two.
  std::size_t ring_capacity = 0;
  /// Records moved per ring synchronization point.
  std::size_t batch = 256;
  /// Producer threads (clamped to the source count). Sources are
  /// assigned heaviest first by expected_packets() (0 counts as 1) to
  /// the producer with the least expected load (ties: lowest index), so
  /// the heaviest link does not share its producer while lighter ones
  /// can pair up.
  unsigned producers = 2;
  /// Consumer shards; 0 = one per pool worker. Clamped to
  /// [1, min(pool size, source count)].
  unsigned consumers = 0;
  /// Root seed: link samplers draw substream(link id) from it.
  std::uint64_t seed = 42;
  /// Pre-size each link's flow table and export buffer for this many
  /// flows (zero-allocation steady state); 0 = no pre-sizing.
  std::size_t expected_flows_per_link = 0;
};

/// Host infrastructure (all optional, borrowed).
struct IngestDeps {
  /// Counter/histogram sink; null = detached no-op handles.
  obs::MetricsRegistry* metrics = nullptr;
  /// Wall-time source for the throughput stats; null = steady clock.
  const obs::Clock* clock = nullptr;
  /// Consumer-shard pool; null = consume inline on the caller after the
  /// producers finish (single-shard, still correct, no parallelism).
  runtime::ThreadPool* pool = nullptr;
};

/// One run's totals.
struct IngestStats {
  /// Packets emitted by the sources.
  std::uint64_t offered_packets = 0;
  /// Packets that reached a consumer (offered - dropped).
  std::uint64_t consumed_packets = 0;
  /// Packets the configured policy sampled into flow tables.
  std::uint64_t sampled_packets = 0;
  /// Ring overflow under OverflowPolicy::kDrop.
  std::uint64_t dropped_packets = 0;
  /// Flow records exported into the collector.
  std::uint64_t exported_records = 0;
  std::size_t sources = 0;
  unsigned producer_threads = 0;
  /// Packets replayed by the busiest producer: the ingest critical path
  /// when replay, not consumption, bounds the run.
  std::uint64_t max_producer_packets = 0;
  unsigned consumer_shards = 0;
  double elapsed_sec = 0.0;
  /// consumed_packets / elapsed_sec (0 when the clock stood still).
  double packets_per_sec = 0.0;

  double drop_rate() const noexcept {
    return offered_packets != 0
               ? static_cast<double>(dropped_packets) /
                     static_cast<double>(offered_packets)
               : 0.0;
  }
};

/// The pipeline. Construct, add sources (one per monitored link), run.
/// Not reusable: one run() per instance.
class IngestPipeline {
 public:
  /// `rates[link]` is the sampling probability in force on each link;
  /// `egress` resolves record endpoints for the collector. Both are
  /// borrowed and must outlive the pipeline.
  IngestPipeline(const sampling::RateVector& rates,
                 const netflow::EgressMap& egress, IngestOptions options = {},
                 IngestDeps deps = {});
  ~IngestPipeline();  // out-of-line: SourceState is incomplete here

  /// Adds one source. Its link must have rates[link] > 0.
  void add_source(std::unique_ptr<PacketSource> source);
  void add_sources(std::vector<std::unique_ptr<PacketSource>> sources);

  /// Drains every source to exhaustion, flushes all flow tables, and
  /// feeds the exported records to the collector. Returns the totals.
  IngestStats run();

  const netflow::Collector& collector() const noexcept { return collector_; }
  const IngestStats& stats() const noexcept { return stats_; }
  std::size_t source_count() const noexcept { return sources_.size(); }

 private:
  struct SourceState;

  void assign_producers(unsigned producers);
  void producer_loop(unsigned producer);
  void consumer_loop(std::size_t shard_index, unsigned shard_count);
  void process_batch(SourceState& state, const PacketRecord* records,
                     std::size_t count);

  const sampling::RateVector& rates_;
  IngestOptions options_;
  IngestDeps deps_;
  netflow::Collector collector_;
  std::vector<std::unique_ptr<SourceState>> sources_;
  std::atomic<unsigned> producers_running_{0};
  bool ran_ = false;
  IngestStats stats_;

  // Metrics handles (detached no-ops without a registry).
  obs::Counter packets_total_;
  obs::Counter sampled_total_;
  obs::Counter dropped_total_;
  obs::Counter batches_total_;
  obs::Counter exported_total_;
  obs::Histogram ring_occupancy_;
  obs::Histogram produce_batch_ns_;
  obs::Histogram consume_batch_ns_;
  obs::Gauge packets_per_sec_;
  obs::Gauge producer_packets_max_;
};

/// Matches control::kMissing: an observation entry carrying no estimate.
inline constexpr double kNoEstimate = -1.0;

/// Per-OD rate estimates (pkt/s) for one collector bin: the paper's
/// X_k / rho_k estimator with rho from the linearized effective-rate
/// model, divided by the bin length. ODs with rho ~ 0 get kNoEstimate.
/// The result drops straight into control::BinObservation::od_rates.
std::vector<double> od_rate_estimates(const netflow::Collector& collector,
                                      const routing::RoutingMatrix& matrix,
                                      const sampling::RateVector& rates,
                                      std::int64_t bin, double bin_sec);

}  // namespace netmon::ingest
