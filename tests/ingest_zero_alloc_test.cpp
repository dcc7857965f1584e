// Zero-allocation steady state of the ingest hot path (same
// counting-allocator idiom as topo_presize_test.cpp): once the ring is
// built, the synthetic source has staged its first bucket, and the flow
// table has seen every flow once, pushing packets source -> ring ->
// sampler -> table performs no heap allocations at all.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "ingest/spsc_ring.hpp"
#include "ingest/synthetic.hpp"
#include "netflow/flow_table.hpp"
#include "sampling/sampler.hpp"
#include "topo/graph.hpp"
#include "util/rng.hpp"

namespace {
std::size_t g_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace netmon {
namespace {

template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_alloc_count;
  fn();
  return g_alloc_count - before;
}

TEST(IngestZeroAlloc, RingPushPopAllocatesNothing) {
  ingest::SpscRing<ingest::PacketRecord> ring(256);
  ingest::PacketRecord batch[64];
  const std::size_t allocs = allocations_in([&] {
    for (int round = 0; round < 1000; ++round) {
      ring.push_or_drop(batch, 64);
      ring.pop(batch, 64);
    }
  });
  EXPECT_EQ(allocs, 0u) << "ring moved records through the heap";
}

/// Stages the source's first bucket, then counts the allocations of
/// draining the rest; `delivered` gets every packet the source emitted.
std::size_t replay_allocations(ingest::PacketSource& source,
                               std::uint64_t& delivered) {
  ingest::PacketRecord batch[256];
  delivered = source.next_batch(batch, 256);
  EXPECT_GT(delivered, 0u);  // warm the first bucket
  return allocations_in([&] {
    while (!source.exhausted()) {
      const std::size_t n = source.next_batch(batch, 256);
      if (n == 0) break;
      delivered += n;
    }
  });
}

TEST(IngestZeroAlloc, SyntheticReplayAllocatesNothingAfterWarmup) {
  topo::Graph graph;
  const auto a = graph.add_node("A");
  const auto b = graph.add_node("B");
  graph.add_duplex(a, b, 1e9, 1.0);
  const routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 1}});
  const auto link = *graph.find_link(0, 1);
  ingest::SyntheticOptions options;
  options.flowgen.interval_sec = 30.0;
  std::uint64_t delivered = 0;

  // A light link and a dense one (thousands of concurrent spans).
  for (const double pkt_per_sec : {400.0, 40000.0}) {
    SCOPED_TRACE(testing::Message() << pkt_per_sec << " pkt/s");
    const ingest::SyntheticTraffic traffic(matrix, {{{0, 1}, pkt_per_sec}},
                                           options);
    auto source = traffic.source(link);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(replay_allocations(*source, delivered), 0u)
        << "synthetic replay allocated in steady state";
    EXPECT_EQ(delivered, traffic.packets_on(link));
    if (pkt_per_sec > 400.0) {
      EXPECT_GT(traffic.flows()[0].size(), 5000u);
    }
  }

  // A zero-duration elephant after a run of mice: its bucket holds 2e5
  // packets, far more than any bucket staged before it.
  ingest::LinkSchedule schedule;
  for (std::uint16_t k = 0; k < 200; ++k) {
    ingest::PacketSpan mouse;
    mouse.key.src_port = k;
    mouse.packets = 3;
    mouse.start_sec = 0.005 * k;
    mouse.dt_sec = 0.001;
    schedule.spans.push_back(mouse);
  }
  ingest::PacketSpan elephant;
  elephant.key.src_port = 9999;
  elephant.packets = 200000;
  elephant.start_sec = 1.5;
  elephant.fin_last = true;
  schedule.spans.push_back(elephant);
  schedule.finalize();
  auto source = ingest::replay_schedule(link, schedule);
  EXPECT_EQ(replay_allocations(*source, delivered), 0u)
      << "a zero-duration elephant's bucket allocated";
  EXPECT_EQ(delivered, schedule.packets);
}

TEST(IngestZeroAlloc, HotPathSteadyStateAllocatesNothing) {
  // Full per-packet path: source batch -> ring -> Bernoulli sampler ->
  // pre-sized flow table on already-cached flows.
  topo::Graph graph;
  const auto a = graph.add_node("A");
  const auto b = graph.add_node("B");
  graph.add_duplex(a, b, 1e9, 1.0);
  const routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 1}});
  ingest::SyntheticOptions options;
  options.flowgen.interval_sec = 60.0;
  const ingest::SyntheticTraffic traffic(matrix, {{{0, 1}, 300.0}},
                                         options);
  const auto link = *graph.find_link(0, 1);
  auto source = traffic.source(link);
  ASSERT_NE(source, nullptr);

  ingest::SpscRing<ingest::PacketRecord> ring(1024);
  sampling::LinkSampler sampler(sampling::SamplerKind::kBernoulli, 0.5,
                                Rng(42).substream(link)());
  // Timeouts beyond the interval: no expiry churn during the run, so
  // the export callback (which appends to a vector) never fires.
  netflow::FlowTableOptions table_options;
  table_options.idle_timeout_sec = 1e6;
  table_options.active_timeout_sec = 1e6;
  std::vector<netflow::FlowRecord> exported;
  exported.reserve(4096);
  netflow::FlowTable table(
      link, table_options,
      [&exported](const netflow::FlowRecord& r) { exported.push_back(r); });
  table.reserve(4096);

  // Warm-up pass: replay the whole interval once so every flow is
  // cached (FIN expiry still exports some; that's the warm-up's job).
  {
    auto warm = traffic.source(link);
    ingest::PacketRecord batch[256];
    while (!warm->exhausted()) {
      const std::size_t n = warm->next_batch(batch, 256);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i)
        table.observe(batch[i].key, batch[i].bytes, batch[i].ts_sec, false);
    }
  }
  ASSERT_GT(table.size(), 0u);

  // Steady state: same flows again (fresh source, same seed), through
  // the ring, sampled, folded. Suppress FIN so no entry is erased and
  // re-inserted: every observe() hits an already-cached flow.
  ingest::PacketRecord in[256], out[256];
  std::uint64_t observed = 0;
  const std::size_t allocs = allocations_in([&] {
    while (!source->exhausted()) {
      const std::size_t n = source->next_batch(in, 256);
      if (n == 0) break;
      std::size_t staged = 0;
      while (staged < n) staged += ring.try_push(in + staged, n - staged);
      std::size_t drained = 0;
      while (drained < n) {
        const std::size_t got = ring.pop(out, 256);
        for (std::size_t i = 0; i < got; ++i) {
          if (!sampler.sample()) continue;
          table.observe(out[i].key, out[i].bytes, out[i].ts_sec, false);
          ++observed;
        }
        drained += got;
      }
    }
  });
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(allocs, 0u) << "ingest hot path allocated in steady state";
}

}  // namespace
}  // namespace netmon
