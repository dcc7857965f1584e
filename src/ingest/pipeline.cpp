#include "ingest/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <thread>

#include "sampling/effective_rate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::ingest {

namespace {

// How long a consumer shard that found all its rings empty sleeps
// before scanning again. Consumers outpace producers, so a shard that
// yield-spun instead stayed runnable and competed with the producers
// for cores; sleeping leaves those cores to the producers. 50 us (the
// kernel's timer slack roughly doubles it) is far below the time a
// producer needs to fill a default 8192-slot ring.
constexpr std::chrono::microseconds kConsumerIdleSleep{50};

std::vector<double> pow2_bounds(double lo, double hi) {
  std::vector<double> bounds;
  for (double b = lo; b <= hi; b *= 2.0) bounds.push_back(b);
  return bounds;
}

}  // namespace

/// Everything keyed by one source (== one monitored-link stream). The
/// producer side touches source/ring-push/produced; the consumer side
/// touches ring-pop/sampler/table/exported/consumed — never both, so no
/// field needs locking.
struct IngestPipeline::SourceState {
  explicit SourceState(sampling::LinkSampler link_sampler)
      : sampler(std::move(link_sampler)) {}

  std::unique_ptr<PacketSource> source;
  std::unique_ptr<SpscRing<PacketRecord>> ring;
  sampling::LinkSampler sampler;
  std::unique_ptr<netflow::FlowTable> table;
  std::vector<netflow::FlowRecord> exported;
  topo::LinkId link = topo::kInvalidId;
  /// The producer thread that owns `source` (assign_producers).
  unsigned producer = 0;
  double rate = 0.0;
  double last_ts = 0.0;
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  std::uint64_t sampled = 0;
};

IngestPipeline::IngestPipeline(const sampling::RateVector& rates,
                               const netflow::EgressMap& egress,
                               IngestOptions options, IngestDeps deps)
    : rates_(rates),
      options_(options),
      deps_(deps),
      collector_(egress, options.collector) {
  NETMON_REQUIRE(options_.batch > 0, "batch size must be positive");
  if (deps_.metrics != nullptr) {
    obs::MetricsRegistry& m = *deps_.metrics;
    packets_total_ = m.counter("netmon_ingest_packets_total",
                               "packets emitted by all sources");
    sampled_total_ = m.counter("netmon_ingest_sampled_total",
                               "packets sampled into flow tables");
    dropped_total_ = m.counter("netmon_ingest_dropped_total",
                               "packets dropped on ring overflow");
    batches_total_ = m.counter("netmon_ingest_batches_total",
                               "consumer batches processed");
    exported_total_ = m.counter("netmon_ingest_exported_records_total",
                                "flow records exported to the collector");
    ring_occupancy_ =
        m.histogram("netmon_ingest_ring_occupancy",
                    pow2_bounds(1.0, 65536.0), "ring depth after a push");
    produce_batch_ns_ =
        m.histogram("netmon_ingest_produce_batch_ns",
                    pow2_bounds(256.0, 16777216.0),
                    "source next_batch latency");
    consume_batch_ns_ =
        m.histogram("netmon_ingest_consume_batch_ns",
                    pow2_bounds(256.0, 16777216.0),
                    "sample+fold latency per consumed batch");
    packets_per_sec_ = m.gauge("netmon_ingest_pkts_per_sec",
                               "sustained ingest throughput of the run");
    producer_packets_max_ =
        m.gauge("netmon_ingest_producer_packets_max",
                "packets replayed by the busiest producer of the run");
  }
}

IngestPipeline::~IngestPipeline() = default;

void IngestPipeline::add_source(std::unique_ptr<PacketSource> source) {
  NETMON_REQUIRE(!ran_, "pipeline already ran");
  NETMON_REQUIRE(source != nullptr, "null source");
  const topo::LinkId link = source->link();
  NETMON_REQUIRE(link < rates_.size() && rates_[link] > 0.0,
                 "source link has no sampling rate in force");

  const Rng root(options_.seed);
  auto state = std::make_unique<SourceState>(sampling::LinkSampler(
      options_.sampler, rates_[link], root.substream(link)()));
  state->link = link;
  state->rate = rates_[link];
  state->source = std::move(source);
  state->ring = std::make_unique<SpscRing<PacketRecord>>(
      ring_capacity_from_env(options_.ring_capacity));
  SourceState* raw = state.get();
  state->table = std::make_unique<netflow::FlowTable>(
      link, options_.flow_table,
      [raw](const netflow::FlowRecord& record) {
        raw->exported.push_back(record);
      });
  if (options_.expected_flows_per_link > 0) {
    state->table->reserve(options_.expected_flows_per_link);
    state->exported.reserve(2 * options_.expected_flows_per_link);
  }
  sources_.push_back(std::move(state));
}

void IngestPipeline::add_sources(
    std::vector<std::unique_ptr<PacketSource>> sources) {
  for (auto& source : sources) add_source(std::move(source));
}

void IngestPipeline::assign_producers(unsigned producers) {
  // Heaviest first (ties: lower source index) to the least-loaded
  // producer (ties: lower producer index). A hint-less source weighs 1,
  // so a set of them comes out round-robin. Results do not depend on the
  // assignment: all per-packet state is keyed by source.
  const auto weight = [this](std::size_t i) {
    return std::max<std::uint64_t>(sources_[i]->source->expected_packets(),
                                   1);
  };
  std::vector<std::size_t> order(sources_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight(a) > weight(b);
                   });
  std::vector<std::uint64_t> load(producers, 0);
  for (const std::size_t i : order) {
    const auto lightest = static_cast<unsigned>(
        std::min_element(load.begin(), load.end()) - load.begin());
    sources_[i]->producer = lightest;
    load[lightest] += weight(i);
  }
}

void IngestPipeline::producer_loop(unsigned producer) {
  const obs::Clock* clock = deps_.clock;
  // Each owned source has its own staging batch, filled in place by
  // next_batch; [off, len) is what has not reached the ring yet (under
  // the blocking policy a partial push strands the rest there).
  struct Slot {
    SourceState* state = nullptr;
    std::vector<PacketRecord> pending;
    std::size_t off = 0;
    std::size_t len = 0;
  };
  std::vector<Slot> slots;
  for (const auto& state : sources_) {
    if (state->producer != producer) continue;
    Slot slot;
    slot.state = state.get();
    slot.pending.resize(options_.batch);
    slots.push_back(std::move(slot));
  }

  for (;;) {
    bool progress = false;
    bool done = true;
    for (Slot& slot : slots) {
      SourceState& s = *slot.state;
      // Refill the slot's staging batch from the source.
      if (slot.off == slot.len && !s.source->exhausted()) {
        const auto t0 = (produce_batch_ns_ && clock != nullptr)
                            ? clock->now()
                            : obs::TimePoint{};
        const std::size_t n =
            s.source->next_batch(slot.pending.data(), options_.batch);
        if (produce_batch_ns_ && clock != nullptr)
          produce_batch_ns_.observe(static_cast<double>(
              obs::to_ns(clock->now()) - obs::to_ns(t0)));
        if (n > 0) {
          slot.off = 0;
          slot.len = n;
          s.produced += n;
          packets_total_.inc(n);
          progress = true;
        }
      }
      // Move staged records into the ring under the overflow policy.
      if (slot.off < slot.len) {
        const std::size_t want = slot.len - slot.off;
        std::size_t moved;
        if (options_.overflow == OverflowPolicy::kDrop) {
          moved = s.ring->push_or_drop(slot.pending.data() + slot.off, want);
          slot.off = slot.len;  // overflow is gone, counted
        } else {
          moved = s.ring->try_push(slot.pending.data() + slot.off, want);
          slot.off += moved;
        }
        if (moved > 0) {
          progress = true;
          if (ring_occupancy_)
            ring_occupancy_.observe(static_cast<double>(s.ring->size()));
        }
      }
      if (!(s.source->exhausted() && slot.off == slot.len)) done = false;
    }
    if (done) break;
    if (!progress) std::this_thread::yield();
  }
  producers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

void IngestPipeline::process_batch(SourceState& state,
                                   const PacketRecord* records,
                                   std::size_t count) {
  const obs::Clock* clock = deps_.clock;
  const auto t0 = (consume_batch_ns_ && clock != nullptr) ? clock->now()
                                                          : obs::TimePoint{};
  std::uint64_t sampled = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const PacketRecord& record = records[i];
    // Monotonic clamp: the flow table requires non-decreasing time.
    const double ts = std::max(record.ts_sec, state.last_ts);
    state.last_ts = ts;
    if (state.sampler.sample()) {
      state.table->observe(record.key, record.bytes, ts, record.fin());
      ++sampled;
    }
  }
  state.consumed += count;
  state.sampled += sampled;
  batches_total_.inc();
  sampled_total_.inc(sampled);
  if (consume_batch_ns_ && clock != nullptr)
    consume_batch_ns_.observe(
        static_cast<double>(obs::to_ns(clock->now()) - obs::to_ns(t0)));
}

void IngestPipeline::consumer_loop(std::size_t shard_index,
                                   unsigned shard_count) {
  std::vector<PacketRecord> buffer(options_.batch);
  std::vector<SourceState*> owned;
  for (std::size_t i = shard_index; i < sources_.size(); i += shard_count)
    owned.push_back(sources_[i].get());

  for (;;) {
    // Read the producer count BEFORE scanning the rings: every push
    // happens-before the final decrement, so "no producers left" plus a
    // subsequent empty scan means the rings are drained for good.
    const bool producers_done =
        producers_running_.load(std::memory_order_acquire) == 0;
    bool progress = false;
    for (SourceState* state : owned) {
      const std::size_t n =
          state->ring->pop(buffer.data(), options_.batch);
      if (n == 0) continue;
      progress = true;
      process_batch(*state, buffer.data(), n);
    }
    if (progress) continue;
    if (producers_done) break;
    std::this_thread::sleep_for(kConsumerIdleSleep);
  }
  // End of stream: expire and export everything still cached.
  for (SourceState* state : owned) state->table->flush(state->last_ts);
}

IngestStats IngestPipeline::run() {
  NETMON_REQUIRE(!ran_, "IngestPipeline::run is one-shot");
  ran_ = true;
  const obs::Clock& clock =
      deps_.clock != nullptr ? *deps_.clock : obs::Clock::system();
  const obs::TimePoint t0 = clock.now();

  stats_ = {};
  stats_.sources = sources_.size();
  if (!sources_.empty()) {
    const auto n = static_cast<unsigned>(sources_.size());
    const unsigned producers = std::clamp(options_.producers, 1u, n);
    unsigned shards = 1;
    if (deps_.pool != nullptr) {
      const unsigned want =
          options_.consumers != 0 ? options_.consumers : deps_.pool->size();
      shards = std::clamp(want, 1u, std::min(deps_.pool->size(), n));
    }
    stats_.producer_threads = producers;
    stats_.consumer_shards = shards;
    assign_producers(producers);
    producers_running_.store(producers, std::memory_order_release);

    if (deps_.pool != nullptr) {
      // Consumers first (pool), then producers (dedicated threads, as a
      // capture NIC would be); the caller helps drain via wait().
      runtime::TaskGroup group(*deps_.pool);
      for (unsigned c = 0; c < shards; ++c)
        group.run([this, c, shards] { consumer_loop(c, shards); });
      std::vector<std::thread> threads;
      threads.reserve(producers);
      for (unsigned p = 0; p < producers; ++p)
        threads.emplace_back([this, p] { producer_loop(p); });
      for (std::thread& t : threads) t.join();
      group.wait();
    } else {
      // Inline mode: no threads at all — producers and the single
      // consumer shard interleave on the caller (rings still in path).
      std::vector<std::thread> threads;
      threads.reserve(producers);
      for (unsigned p = 0; p < producers; ++p)
        threads.emplace_back([this, p] { producer_loop(p); });
      consumer_loop(0, 1);
      for (std::thread& t : threads) t.join();
    }
  }

  // Single-threaded tail: feed the collector in source order (the
  // aggregation is commutative, so this order is presentational only).
  std::vector<std::uint64_t> producer_packets(stats_.producer_threads, 0);
  for (const auto& state : sources_) {
    producer_packets[state->producer] += state->produced;
    for (const netflow::FlowRecord& record : state->exported)
      collector_.receive(record, state->link, state->rate);
    stats_.exported_records += state->exported.size();
    stats_.offered_packets += state->produced;
    stats_.consumed_packets += state->consumed;
    stats_.sampled_packets += state->sampled;
    stats_.dropped_packets += state->ring->dropped();
  }
  if (!producer_packets.empty())
    stats_.max_producer_packets =
        *std::max_element(producer_packets.begin(), producer_packets.end());
  producer_packets_max_.set(
      static_cast<double>(stats_.max_producer_packets));
  exported_total_.inc(stats_.exported_records);
  dropped_total_.inc(stats_.dropped_packets);

  stats_.elapsed_sec =
      std::chrono::duration<double>(clock.now() - t0).count();
  stats_.packets_per_sec =
      stats_.elapsed_sec > 0.0
          ? static_cast<double>(stats_.consumed_packets) / stats_.elapsed_sec
          : 0.0;
  packets_per_sec_.set(stats_.packets_per_sec);
  return stats_;
}

std::vector<double> od_rate_estimates(const netflow::Collector& collector,
                                      const routing::RoutingMatrix& matrix,
                                      const sampling::RateVector& rates,
                                      std::int64_t bin, double bin_sec) {
  NETMON_REQUIRE(bin_sec > 0.0, "bin length must be positive");
  const std::vector<double> rhos =
      sampling::effective_rates_approx(matrix, rates);
  std::vector<double> estimates(matrix.od_count(), kNoEstimate);
  for (std::size_t k = 0; k < matrix.od_count(); ++k) {
    if (rhos[k] <= 1e-12) continue;
    const std::uint64_t sampled =
        collector.sampled_packets(bin, matrix.od(k));
    estimates[k] =
        static_cast<double>(sampled) / (rhos[k] * bin_sec);
  }
  return estimates;
}

}  // namespace netmon::ingest
