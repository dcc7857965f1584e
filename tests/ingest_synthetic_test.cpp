#include "ingest/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/task.hpp"
#include "helpers.hpp"
#include "traffic/flow_generator.hpp"
#include "util/rng.hpp"

namespace netmon::ingest {
namespace {

struct LineScenario {
  topo::Graph graph = test::line_graph();
  traffic::TrafficMatrix tm{{{0, 3}, 120.0}, {{0, 1}, 240.0}};
  routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 3}, {0, 1}});
  topo::LinkId ab, bc;
  SyntheticOptions options;

  LineScenario() {
    ab = *graph.find_link(0, 1);
    bc = *graph.find_link(1, 2);
    options.flowgen.interval_sec = 60.0;
    options.seed = 42;
  }
};

std::vector<PacketRecord> drain(PacketSource& source,
                                std::size_t batch = 128) {
  std::vector<PacketRecord> out;
  std::vector<PacketRecord> buf(batch);
  while (!source.exhausted()) {
    const std::size_t n = source.next_batch(buf.data(), batch);
    if (n == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<long>(n));
  }
  return out;
}

/// Brute-force replay order: every span expanded with the same
/// `+= dt_sec` accumulation, then stable-sorted by (ts, schedule index)
/// so a span's own packets keep their emission order.
std::vector<PacketRecord> reference_stream(const LinkSchedule& schedule) {
  struct Emission {
    double ts;
    std::size_t span;
    std::uint32_t seq;
  };
  std::vector<Emission> all;
  for (std::size_t i = 0; i < schedule.spans.size(); ++i) {
    const PacketSpan& span = schedule.spans[i];
    double ts = span.start_sec;
    for (std::uint32_t k = 0; k < span.packets; ++k) {
      all.push_back({ts, i, k});
      ts += span.dt_sec;
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Emission& a, const Emission& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.span < b.span;
                   });
  std::vector<PacketRecord> out;
  out.reserve(all.size());
  for (const Emission& e : all) {
    const PacketSpan& span = schedule.spans[e.span];
    PacketRecord record;
    record.key = span.key;
    record.bytes = span.pkt_bytes;
    record.flags =
        (span.fin_last && e.seq + 1 == span.packets) ? kPacketFin : 0;
    record.ts_sec = e.ts;
    out.push_back(record);
  }
  return out;
}

void expect_same_stream(const std::vector<PacketRecord>& actual,
                        const std::vector<PacketRecord>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const PacketRecord& a = actual[i];
    const PacketRecord& e = expected[i];
    if (a.key == e.key && a.bytes == e.bytes && a.flags == e.flags &&
        std::bit_cast<std::uint64_t>(a.ts_sec) ==
            std::bit_cast<std::uint64_t>(e.ts_sec))
      continue;
    ADD_FAILURE() << "first mismatch at packet " << i << ": ts "
                  << a.ts_sec << " vs " << e.ts_sec << ", port "
                  << a.key.src_port << " vs " << e.key.src_port;
    return;
  }
}

/// Drains a fresh source per batch size (1, 7, 256) and compares each
/// stream with the reference, record for record and bit for bit.
template <typename MakeSource>
void expect_reference_order(const LinkSchedule& schedule,
                            MakeSource make_source) {
  const std::vector<PacketRecord> expected = reference_stream(schedule);
  ASSERT_EQ(expected.size(), schedule.packets);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    const auto source = make_source();
    expect_same_stream(drain(*source, batch), expected);
    EXPECT_TRUE(source->exhausted());
  }
}

void expect_reference_order(const LinkSchedule& schedule) {
  expect_reference_order(schedule, [&] { return replay_schedule(5, schedule); });
}

PacketSpan make_span(std::uint16_t port, std::uint32_t packets,
                     double start_sec, double dt_sec) {
  PacketSpan span;
  span.key.src_ip = 0x0a000001;
  span.key.dst_ip = 0x0a000102;
  span.key.src_port = port;
  span.key.dst_port = 80;
  span.pkt_bytes = 100u + port;
  span.packets = packets;
  span.start_sec = start_sec;
  span.dt_sec = dt_sec;
  span.fin_last = port % 2 == 0;
  return span;
}

LinkSchedule schedule_of(std::vector<PacketSpan> spans) {
  LinkSchedule schedule;
  schedule.spans = std::move(spans);
  schedule.finalize();
  return schedule;
}

TEST(Synthetic, SchedulesMatchFlowPopulations) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  ASSERT_EQ(traffic.flows().size(), 2u);
  const std::uint64_t od0 = traffic::total_packets(traffic.flows()[0]);
  const std::uint64_t od1 = traffic::total_packets(traffic.flows()[1]);
  // A->B carries both ODs, B->C only OD 0 (0 -> 3).
  EXPECT_EQ(traffic.packets_on(s.ab), od0 + od1);
  EXPECT_EQ(traffic.packets_on(s.bc), od0);
  EXPECT_GT(od0, 0u);
  EXPECT_GT(od1, 0u);
}

TEST(Synthetic, ReplayDeliversEveryScheduledPacketInTimeOrder) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  auto source = traffic.source(s.ab);
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->link(), s.ab);
  const std::vector<PacketRecord> packets = drain(*source);
  EXPECT_EQ(packets.size(), traffic.packets_on(s.ab));
  double last = -1.0;
  for (const PacketRecord& p : packets) {
    EXPECT_GE(p.ts_sec, last);
    EXPECT_GE(p.ts_sec, 0.0);
    EXPECT_GE(p.bytes, s.options.min_packet_bytes);
    last = p.ts_sec;
  }
  EXPECT_LE(last, s.options.flowgen.interval_sec + 1.0);
  EXPECT_TRUE(source->exhausted());
}

TEST(Synthetic, FinMarksEndOfTcpFlowsOnly) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  auto source = traffic.source(s.ab);
  std::uint64_t fins = 0;
  for (const PacketRecord& p : drain(*source)) {
    if (p.fin()) {
      EXPECT_EQ(p.key.proto, 6) << "FIN on a non-TCP packet";
      ++fins;
    }
  }
  EXPECT_GT(fins, 0u);
  // At most one FIN per flow appearance on the link.
  std::uint64_t tcp_flows = 0;
  for (const auto& population : traffic.flows())
    for (const auto& flow : population)
      if (flow.key.proto == 6) ++tcp_flows;
  EXPECT_LE(fins, tcp_flows);
}

TEST(Synthetic, DeterministicForFixedSeed) {
  LineScenario s;
  SyntheticTraffic a(s.matrix, s.tm, s.options);
  SyntheticTraffic b(s.matrix, s.tm, s.options);
  auto sa = a.source(s.ab);
  auto sb = b.source(s.ab);
  const std::vector<PacketRecord> pa = drain(*sa);
  const std::vector<PacketRecord> pb = drain(*sb);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].key, pb[i].key);
    EXPECT_EQ(pa[i].bytes, pb[i].bytes);
    EXPECT_EQ(pa[i].flags, pb[i].flags);
    EXPECT_EQ(pa[i].ts_sec, pb[i].ts_sec);  // bit-identical
  }
}

TEST(Synthetic, SeedChangesTheStream) {
  LineScenario s;
  SyntheticTraffic a(s.matrix, s.tm, s.options);
  s.options.seed = 43;
  SyntheticTraffic b(s.matrix, s.tm, s.options);
  EXPECT_NE(a.packets_on(s.ab), b.packets_on(s.ab));
}

TEST(Synthetic, SourcesFollowTheMonitoredSet) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  sampling::RateVector rates(s.graph.link_count(), 0.0);
  rates[s.ab] = 0.1;
  auto sources = traffic.sources(rates);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0]->link(), s.ab);

  rates[s.bc] = 0.2;
  EXPECT_EQ(traffic.sources(rates).size(), 2u);

  // A monitored link nothing is routed over yields no source.
  sampling::RateVector off_path(s.graph.link_count(), 0.0);
  off_path[*s.graph.find_link(3, 2)] = 0.5;
  EXPECT_TRUE(traffic.sources(off_path).empty());
}

TEST(Synthetic, BatchSizeDoesNotChangeTheStream) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  auto big = traffic.source(s.ab);
  auto small = traffic.source(s.ab);
  const std::vector<PacketRecord> big_stream = drain(*big);
  std::vector<PacketRecord> small_stream;
  PacketRecord one;
  while (small->next_batch(&one, 1) == 1) small_stream.push_back(one);
  ASSERT_EQ(big_stream.size(), small_stream.size());
  for (std::size_t i = 0; i < big_stream.size(); ++i) {
    EXPECT_EQ(big_stream[i].key, small_stream[i].key);
    EXPECT_EQ(big_stream[i].ts_sec, small_stream[i].ts_sec);
  }
}

TEST(Synthetic, ReplayMatchesReferenceOrderOnLineScenario) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  const std::vector<LinkSchedule> schedules = build_link_schedules(
      s.matrix, traffic.flows(), s.options.min_packet_bytes);
  for (const topo::LinkId link : {s.ab, s.bc}) {
    SCOPED_TRACE(testing::Message() << "link " << link);
    EXPECT_EQ(schedules[link].packets, traffic.packets_on(link));
    expect_reference_order(schedules[link],
                           [&] { return traffic.source(link); });
  }
}

TEST(Synthetic, ReplayMatchesReferenceOrderOnHeaviestJanetLink) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const traffic::TrafficMatrix demands = core::janet_demands(scenario.net);
  std::vector<routing::OdPair> ods;
  for (const traffic::Demand& d : demands) ods.push_back(d.od);
  const auto matrix =
      routing::RoutingMatrix::single_path(scenario.net.graph, ods);
  SyntheticOptions options;
  options.flowgen.interval_sec = 4.0;
  options.seed = 7919;
  SyntheticTraffic traffic(matrix, demands, options);

  topo::LinkId heaviest = 0;
  for (std::size_t link = 0; link < traffic.link_count(); ++link) {
    const auto id = static_cast<topo::LinkId>(link);
    if (traffic.packets_on(id) > traffic.packets_on(heaviest)) heaviest = id;
  }
  ASSERT_GT(traffic.packets_on(heaviest), 10000u);
  const std::vector<LinkSchedule> schedules = build_link_schedules(
      matrix, traffic.flows(), options.min_packet_bytes);
  expect_reference_order(schedules[heaviest],
                         [&] { return traffic.source(heaviest); });
}

TEST(Synthetic, ReplayOrdersZeroDurationFlows) {
  // dt_sec == 0: every packet of a span shares one timestamp, and two
  // such spans plus a regular one collide on it.
  expect_reference_order(schedule_of({
      make_span(1, 300, 2.0, 0.0),
      make_span(2, 40, 2.0, 0.0),
      make_span(3, 30, 1.5, 0.05),
      make_span(4, 1000, 3.0, 0.0),
  }));
  // Every packet of the link at one timestamp: a zero-width range.
  const LinkSchedule pileup = schedule_of({
      make_span(5, 70, 1.25, 0.0),
      make_span(6, 9, 1.25, 0.0),
  });
  EXPECT_EQ(pileup.first_sec, pileup.last_sec);
  expect_reference_order(pileup);
}

TEST(Synthetic, ReplayOrdersEqualStartTimes) {
  std::vector<PacketSpan> spans;
  for (std::uint16_t k = 0; k < 24; ++k)
    spans.push_back(make_span(k, 5u + k, 1.0, 0.01 * (k % 5)));
  expect_reference_order(schedule_of(std::move(spans)));
}

TEST(Synthetic, ReplayOfASingleSpan) {
  expect_reference_order(schedule_of({make_span(8, 100, 0.5, 0.1)}));
  expect_reference_order(schedule_of({make_span(9, 1, 0.5, 0.0)}));
  const LinkSchedule empty = schedule_of({});
  const auto source = replay_schedule(5, empty);
  EXPECT_TRUE(source->exhausted());
  PacketRecord record;
  EXPECT_EQ(source->next_batch(&record, 1), 0u);
}

TEST(Synthetic, ReplayOrdersBucketBoundariesAndOverflow) {
  // 64 packets -> 4 buckets; a [0, 4] range makes them 1 s wide, so the
  // exact multiples of 0.25 hit the edges 1.0, 2.0, 3.0 exactly and
  // everything from 4.0 on lies past the last bucket.
  LinkSchedule schedule = schedule_of({
      make_span(10, 16, 0.0, 0.25),  // 0 .. 3.75
      make_span(11, 16, 1.0, 0.5),   // 1 .. 8.5
      make_span(12, 16, 2.0, 0.0),   // all on the 2.0 edge
      make_span(13, 16, 3.0, 0.25),  // 3 .. 6.75
  });
  ASSERT_EQ(schedule.packets, 64u);
  schedule.first_sec = 0.0;
  schedule.last_sec = 4.0;
  expect_reference_order(schedule);
  // A range narrower than the data: starts before the first bucket and
  // most emissions past the last one are clamped into the end buckets.
  schedule.first_sec = 1.5;
  schedule.last_sec = 2.5;
  expect_reference_order(schedule);
  // A degenerate range: one effective bucket.
  schedule.first_sec = schedule.last_sec = 2.0;
  expect_reference_order(schedule);
}

/// A random schedule shaped to stress the bucket ordering: a few start
/// times shared by many spans, timestamps on a coarse grid (so spans
/// collide exactly), dt = 0 spans, and span lengths from 1 to thousands
/// of packets, so buckets hold anywhere from one emission to thousands.
LinkSchedule random_schedule(Rng& rng) {
  const auto span_count = static_cast<std::size_t>(1 + rng.below(300));
  const double grid = rng.bernoulli(0.5) ? 0.01 : 0.0;  // 0: continuous
  const auto snap = [grid](double t) {
    return grid > 0.0 ? grid * std::floor(t / grid) : t;
  };
  std::vector<double> shared_starts;
  for (int k = 0; k < 4; ++k) shared_starts.push_back(snap(rng.uniform(0, 8)));
  std::vector<PacketSpan> spans;
  for (std::size_t k = 0; k < span_count; ++k) {
    const double roll = rng.uniform();
    const std::uint64_t max_packets =
        roll < 0.6 ? 4 : (roll < 0.95 ? 60 : 3000);
    const auto packets = static_cast<std::uint32_t>(1 + rng.below(max_packets));
    const double start = rng.bernoulli(0.3)
                             ? shared_starts[rng.below(shared_starts.size())]
                             : snap(rng.uniform(0.0, 10.0));
    double dt = 0.0;
    if (!rng.bernoulli(0.25))
      dt = std::max(grid, snap(rng.uniform(0.0, 0.05)));
    spans.push_back(
        make_span(static_cast<std::uint16_t>(k), packets, start, dt));
  }
  LinkSchedule schedule = schedule_of(std::move(spans));
  // The range is only a hint: often narrow it past the data, so starts
  // fall before the first bucket and emissions pile into the last one.
  const double roll = rng.uniform();
  const double range = schedule.last_sec - schedule.first_sec;
  if (roll < 0.25) {
    schedule.first_sec += rng.uniform(0.0, 0.5) * range;
    schedule.last_sec -= rng.uniform(0.0, 0.5) * range;
  } else if (roll < 0.35) {
    schedule.last_sec = schedule.first_sec;  // one effective bucket
  }
  return schedule;
}

TEST(Synthetic, ReplayMatchesReferenceOrderOnRandomSchedules) {
  Rng rng(2024);
  std::uint64_t packets = 0;
  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE(testing::Message() << "schedule " << round);
    const LinkSchedule schedule = random_schedule(rng);
    packets += schedule.packets;
    expect_reference_order(schedule);
    if (HasFailure()) return;
  }
  EXPECT_GT(packets, 100000u);
}

TEST(Synthetic, ReplayOrdersALargeSameTimestampPileupWithoutQuadraticWork) {
  // 240k packets of 6,000 spans at one timestamp: one bucket, one
  // sub-bucket, listed in reverse span order. An insertion pass over it
  // makes ~3e10 moves (about a minute of CPU); the comparison-sort
  // fallback orders it in well under a second, under a sanitizer too.
  // Process CPU time, not wall time, so a loaded host or a parallel
  // test run does not count against it.
  std::vector<PacketSpan> spans;
  for (std::uint16_t k = 0; k < 6000; ++k)
    spans.push_back(make_span(k, 40, 2.5, 0.0));
  spans.push_back(make_span(6000, 50, 1.0, 0.05));  // a spread-out span
  const LinkSchedule schedule = schedule_of(std::move(spans));
  ASSERT_GE(schedule.packets, 240000u);

  const std::clock_t start = std::clock();
  const auto source = replay_schedule(5, schedule);
  const std::vector<PacketRecord> actual = drain(*source, 256);
  const double replay_cpu_s =
      static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
  expect_same_stream(actual, reference_stream(schedule));
  EXPECT_LT(replay_cpu_s, 5.0)
      << "the pileup's bucket was ordered in quadratic time";
  expect_reference_order(schedule);
}

}  // namespace
}  // namespace netmon::ingest
