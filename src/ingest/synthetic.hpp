// Deterministic synthetic packet sources driven by the traffic models.
//
// SyntheticTraffic expands a traffic matrix (gravity / fan-out, any
// TrafficMatrix) into per-OD flow populations via traffic::
// generate_flows, routes each flow over the routing matrix, and builds
// one per-link *packet schedule*: the time-ordered stream of packets
// crossing that link during one measurement interval. A link's source
// replays its schedule as PacketRecord batches through a calendar
// queue: the link's time range is cut into fixed-width buckets of about
// 16 scheduled packets each, active spans sit in intrusive per-bucket
// lists, and each bucket's emissions are ordered — a counting pass on
// finer sub-bucket keys, then an insertion pass — and handed out. Work
// is O(1) amortized per packet while a bucket's timestamps spread, and
// O(m log m) for a bucket of m emissions at worst (a zero-duration
// pileup falls back to a comparison sort). The source allocates nothing
// after construction, which is what lets the ingest bench sustain
// millions of packets per second per producer.
//
// Order contract: a link's packets come out in ascending (timestamp,
// schedule index) order, a span's own packets (which may share a
// timestamp) in emission order — exactly what a global merge of the
// spans would emit — with a span's k-th timestamp accumulated as
// start_sec plus dt_sec added k times. Bucketing cannot change that
// order because the bucket and sub-bucket indices are monotone
// functions of the timestamp.
//
// Determinism: the flow populations are a pure function of (seed,
// traffic matrix) — generate_all_flows derives one Rng stream per OD —
// and the schedules a pure function of the flows and the routing, so
// the packet stream a link's monitor sees is identical across runs,
// producer partitions, batch sizes and consumer thread counts.
// Fractional (ECMP) routing entries are resolved per (flow, link) by
// hashing the flow key: a flow either crosses a link or it does not,
// reproducibly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ingest/source.hpp"
#include "routing/routing_matrix.hpp"
#include "sampling/effective_rate.hpp"
#include "traffic/flow_generator.hpp"

namespace netmon::ingest {

/// Synthetic generation knobs.
struct SyntheticOptions {
  /// Flow population shape (interval length, Pareto sizes).
  traffic::FlowGenOptions flowgen;
  /// Seed for the flow populations (per-OD streams derive from it).
  std::uint64_t seed = 42;
  /// Floor on the derived per-packet wire size.
  std::uint32_t min_packet_bytes = 40;
};

/// One flow's appearance on one link: `packets` (>= 1) packets at
/// start_sec, start_sec + dt_sec, ... (accumulated), FIN on the last
/// TCP packet.
struct PacketSpan {
  traffic::FlowKey key;
  std::uint32_t pkt_bytes = 0;
  std::uint32_t packets = 0;
  double start_sec = 0.0;
  double dt_sec = 0.0;
  bool fin_last = false;
};

/// One link's packet schedule plus the totals its replay needs, computed
/// once by finalize().
struct LinkSchedule {
  /// Spans sorted by start_sec (stable); the position is the span's
  /// schedule index, the emission tie-break.
  std::vector<PacketSpan> spans;
  /// Sum of spans[i].packets — must be exact.
  std::uint64_t packets = 0;
  /// Time range the replay's buckets cover. Only a hint for bucket
  /// balance: emissions outside it land in the first or last bucket and
  /// the order contract still holds.
  double first_sec = 0.0;
  double last_sec = 0.0;

  /// Stable-sorts the spans by start time and recomputes the totals.
  void finalize();
};

/// Routes flow populations (one row per routing-matrix OD) onto per-link
/// schedules, indexed by link id and finalized.
std::vector<LinkSchedule> build_link_schedules(
    const routing::RoutingMatrix& matrix,
    const std::vector<std::vector<traffic::Flow>>& flows,
    std::uint32_t min_packet_bytes);

/// A calendar-queue replay source for one schedule, which it borrows:
/// keep the schedule alive and unchanged while the source runs.
std::unique_ptr<PacketSource> replay_schedule(topo::LinkId link,
                                              const LinkSchedule& schedule);

/// One interval of network-wide synthetic traffic, pre-routed into
/// per-link packet schedules. Keep it alive while sources built from it
/// are running (they borrow the schedules).
class SyntheticTraffic {
 public:
  SyntheticTraffic(const routing::RoutingMatrix& matrix,
                   const traffic::TrafficMatrix& tm,
                   SyntheticOptions options = {});

  /// A replay source for one link (empty schedule = empty source).
  std::unique_ptr<PacketSource> source(topo::LinkId link) const;

  /// Sources for every link with rates[link] > 0 and a non-empty
  /// schedule — the monitored-link set of the pipeline.
  std::vector<std::unique_ptr<PacketSource>> sources(
      const sampling::RateVector& rates) const;

  /// The generated flow populations, one row per traffic-matrix entry
  /// (ground truth for accuracy checks).
  const std::vector<std::vector<traffic::Flow>>& flows() const noexcept {
    return flows_;
  }

  /// Total packets scheduled on a link across the interval.
  std::uint64_t packets_on(topo::LinkId link) const;

  double interval_sec() const noexcept { return options_.flowgen.interval_sec; }
  std::size_t link_count() const noexcept { return schedules_.size(); }

 private:
  SyntheticOptions options_;
  std::vector<std::vector<traffic::Flow>> flows_;
  /// Per-link schedules, indexed by link id.
  std::vector<LinkSchedule> schedules_;
};

}  // namespace netmon::ingest
