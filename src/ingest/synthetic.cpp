#include "ingest/synthetic.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/page_alloc.hpp"

namespace netmon::ingest {

namespace {

/// Deterministic per-(flow, link) coin for fractional (ECMP) routing
/// entries: mixes the flow-key hash with the link id so the same flow
/// resolves consistently on every run.
bool flow_crosses(const traffic::FlowKey& key, topo::LinkId link,
                  double fraction) noexcept {
  if (fraction >= 1.0) return true;
  std::uint64_t h = traffic::FlowKeyHash{}(key);
  h ^= (static_cast<std::uint64_t>(link) + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0,1)
  return u < fraction;
}

/// Replays one link's schedule with a calendar queue. The link's time
/// range [first_sec, last_sec] is cut into buckets_ fixed-width buckets
/// (about kPacketsPerBucket scheduled packets each). A span is
/// activated in the bucket of its start time and kept in that bucket's
/// intrusive list (head_ + Entry::next); processing bucket b emits, per
/// listed span, every packet whose timestamp still falls in b, relinks
/// the span into the bucket of its next emission, then orders b's
/// emissions by (ts, span index, packet index). bucket_of is monotone
/// in ts (subtract, scale by a positive constant, clamp, truncate), so
/// bucket-major order sorted within each bucket is the global (ts, span
/// index) order.
///
/// A bucket of m emissions is ordered without a comparison sort: a
/// counting pass scatters them into 2m sub-buckets by the same monotone
/// map carried one level finer (sub_bucket_of), so emissions in
/// different sub-buckets are already in timestamp order, and an
/// insertion pass with the full comparator orders each sub-bucket. The
/// comparator is a strict total order, so the result is the sorted
/// order bit for bit. A sub-bucket longer than kMaxInsertionRun (a
/// zero-duration pileup, or emissions clamped into an end bucket) is
/// comparison-sorted first, which keeps a bucket at O(m log m) worst
/// case and O(m) when its timestamps spread.
///
/// No allocation after construction: the staging and ordered emission
/// arrays and the sub-bucket scratch are sized from the link's packet
/// total, an upper bound on any one bucket, as LazyPageArrays, so only
/// the pages the largest bucket touches become resident.
class CalendarReplay final : public PacketSource {
 public:
  CalendarReplay(topo::LinkId link, const LinkSchedule& schedule)
      : link_(link),
        schedule_(&schedule),
        buckets_(static_cast<std::size_t>(std::max<std::uint64_t>(
            1, (schedule.packets + kPacketsPerBucket - 1) /
                   kPacketsPerBucket))),
        last_bucket_(static_cast<double>(buckets_ - 1)),
        first_sec_(schedule.first_sec),
        head_(buckets_, kNone),
        // Written on activation, never read before: left uninitialised.
        entries_(std::make_unique_for_overwrite<Entry[]>(
            schedule.spans.size())),
        staged_(static_cast<std::size_t>(schedule.packets)),
        ordered_(static_cast<std::size_t>(schedule.packets)),
        starts_(2 * static_cast<std::size_t>(schedule.packets) + 1) {
    NETMON_REQUIRE(schedule.spans.size() < kNone,
                   "too many spans on one link");
    NETMON_REQUIRE(schedule.packets < kNone / 2,
                   "too many packets on one link");
    const double width = schedule.last_sec - schedule.first_sec;
    inv_width_ = width > 0.0 ? static_cast<double>(buckets_) / width : 0.0;
  }

  topo::LinkId link() const noexcept override { return link_; }

  std::size_t next_batch(PacketRecord* out, std::size_t max) override {
    const std::vector<PacketSpan>& spans = schedule_->spans;
    std::size_t n = 0;
    while (n < max) {
      if (cursor_ == count_ && !fill_next_bucket()) break;
      const std::size_t take = std::min(max - n, count_ - cursor_);
      for (std::size_t i = 0; i < take; ++i) {
        const Emission& e = ordered_[cursor_ + i];
        const auto index = static_cast<std::uint32_t>(e.order >> 32);
        const auto seq = static_cast<std::uint32_t>(e.order);
        const PacketSpan& span = spans[index];
        PacketRecord& record = out[n + i];
        record.key = span.key;
        record.bytes = span.pkt_bytes;
        record.flags =
            (span.fin_last && seq + 1 == span.packets) ? kPacketFin : 0;
        record.ts_sec = e.ts;
      }
      cursor_ += take;
      n += take;
    }
    delivered_ += n;
    return n;
  }

  bool exhausted() const noexcept override {
    return delivered_ == schedule_->packets;
  }

  std::uint64_t expected_packets() const noexcept override {
    return schedule_->packets;
  }

 private:
  static constexpr std::uint64_t kPacketsPerBucket = 16;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// Longest sub-bucket left to the insertion pass, which moves an
  /// element at most this far; longer ones are comparison-sorted.
  static constexpr std::uint32_t kMaxInsertionRun = 32;

  /// An active span: its next emission and its link in a bucket list.
  /// No member initialisers, so make_unique_for_overwrite skips them.
  struct Entry {
    double next_ts;
    std::uint32_t remaining;
    std::uint32_t next;
  };
  /// One staged packet; order = span index << 32 | packet index.
  struct Emission {
    double ts;
    std::uint64_t order;
  };

  std::size_t bucket_of(double ts) const noexcept {
    // Clamp in double before the cast (an out-of-range conversion is
    // UB); `x > 0.0` also sends a NaN to bucket 0.
    double x = (ts - first_sec_) * inv_width_;
    x = x > 0.0 ? x : 0.0;
    x = x < last_bucket_ ? x : last_bucket_;
    return static_cast<std::size_t>(x);
  }

  /// bucket_of one level finer: the sub-bucket of ts among `subs` equal
  /// slices of bucket b, clamped to [0, subs - 1]. Monotone in ts for the
  /// same reasons (one more constant subtracted, one more positive
  /// factor), which is all the ordering needs; emissions clamped into b
  /// from outside its range share an end sub-bucket.
  std::uint32_t sub_bucket_of(double ts, double b,
                              std::uint32_t subs) const noexcept {
    const double n = static_cast<double>(subs);
    double x = ((ts - first_sec_) * inv_width_ - b) * n;
    x = x > 0.0 ? x : 0.0;
    x = x < n - 1.0 ? x : n - 1.0;
    return static_cast<std::uint32_t>(x);
  }

  /// (ts, order) ascending, without a data-dependent branch.
  static bool emitted_before(const Emission& a, const Emission& b) noexcept {
    return (a.ts < b.ts) | ((a.ts == b.ts) & (a.order < b.order));
  }

  /// Moves bucket b's count_ staged emissions into ordered_, in order
  /// (see the class comment).
  void order_bucket(std::size_t b) {
    const auto m = static_cast<std::uint32_t>(count_);
    // Two sub-buckets per emission: fewer share one than with m, and
    // the insertion pass moves less (measured faster on dense links).
    const std::uint32_t subs = 2 * m;
    const double bucket = static_cast<double>(b);
    // Counting pass: starts_[k + 1] counts sub-bucket k, then the prefix
    // sums turn starts_[k] into sub-bucket k's first slot.
    std::fill_n(starts_.data(), subs + 1, 0u);
    for (std::uint32_t i = 0; i < m; ++i)
      ++starts_[sub_bucket_of(staged_[i].ts, bucket, subs) + 1];
    std::uint32_t longest = 0;
    for (std::uint32_t k = 1; k <= subs; ++k) {
      longest = std::max(longest, starts_[k]);
      starts_[k] += starts_[k - 1];
    }
    Emission* const out = ordered_.data();
    // The scatter recomputes each key: storing them measured no faster.
    for (std::uint32_t i = 0; i < m; ++i)
      out[starts_[sub_bucket_of(staged_[i].ts, bucket, subs)]++] =
          staged_[i];
    // The scatter advanced starts_[k] to sub-bucket k's end.
    if (longest > kMaxInsertionRun) {
      std::uint32_t begin = 0;
      for (std::uint32_t k = 0; k < subs; ++k) {
        if (starts_[k] - begin > kMaxInsertionRun)
          std::sort(out + begin, out + starts_[k], emitted_before);
        begin = starts_[k];
      }
    }
    // Elements of different sub-buckets are in order, so each one stops
    // at its own sub-bucket's start.
    for (std::uint32_t i = 1; i < m; ++i) {
      if (!emitted_before(out[i], out[i - 1])) continue;
      const Emission e = out[i];
      std::uint32_t j = i;
      do {
        out[j] = out[j - 1];
      } while (--j > 0 && emitted_before(e, out[j - 1]));
      out[j] = e;
    }
  }

  /// Stages the next non-empty bucket's emissions and orders them; false
  /// once every scheduled packet has been handed out.
  bool fill_next_bucket() {
    const std::vector<PacketSpan>& spans = schedule_->spans;
    count_ = 0;
    cursor_ = 0;
    std::size_t b = 0;
    while (count_ == 0) {
      if (staged_total_ == schedule_->packets || bucket_ == buckets_)
        return false;
      b = bucket_++;
      // Activate the spans starting in this bucket (starts are sorted,
      // so every earlier start was activated in an earlier bucket).
      while (next_span_ < spans.size() &&
             bucket_of(spans[next_span_].start_sec) <= b) {
        Entry& entry = entries_[next_span_];
        entry.next_ts = spans[next_span_].start_sec;
        entry.remaining = spans[next_span_].packets;
        entry.next = head_[b];
        head_[b] = static_cast<std::uint32_t>(next_span_);
        ++next_span_;
      }
      std::uint32_t i = std::exchange(head_[b], kNone);
      while (i != kNone) {
        Entry& entry = entries_[i];
        const std::uint32_t following = entry.next;
        const PacketSpan& span = spans[i];
        // Every listed span's next emission falls in b.
        std::size_t to = b;
        do {
          staged_[count_++] = {entry.next_ts,
                               std::uint64_t{i} << 32 |
                                   (span.packets - entry.remaining)};
          entry.next_ts += span.dt_sec;
        } while (--entry.remaining > 0 &&
                 (to = bucket_of(entry.next_ts)) == b);
        if (entry.remaining > 0) {
          entry.next = head_[to];
          head_[to] = i;
        }
        i = following;
      }
      staged_total_ += count_;
    }
    order_bucket(b);
    return true;
  }

  topo::LinkId link_;
  const LinkSchedule* schedule_;
  std::size_t buckets_;
  double last_bucket_;
  double first_sec_;
  double inv_width_ = 0.0;
  std::vector<std::uint32_t> head_;
  std::unique_ptr<Entry[]> entries_;
  /// The current bucket's count_ emissions in list order, then ordered
  /// (handed out from cursor_); starts_ is order_bucket's
  /// sub-bucket scratch.
  util::LazyPageArray<Emission> staged_;
  util::LazyPageArray<Emission> ordered_;
  util::LazyPageArray<std::uint32_t> starts_;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;
  std::size_t bucket_ = 0;
  std::size_t next_span_ = 0;
  std::uint64_t staged_total_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace

void LinkSchedule::finalize() {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const PacketSpan& a, const PacketSpan& b) {
                     return a.start_sec < b.start_sec;
                   });
  packets = 0;
  first_sec = spans.empty() ? 0.0 : spans.front().start_sec;
  last_sec = first_sec;
  for (const PacketSpan& span : spans) {
    NETMON_REQUIRE(span.packets > 0, "a scheduled span carries no packets");
    packets += span.packets;
    last_sec = std::max(
        last_sec, span.start_sec + (span.packets - 1) * span.dt_sec);
  }
}

std::vector<LinkSchedule> build_link_schedules(
    const routing::RoutingMatrix& matrix,
    const std::vector<std::vector<traffic::Flow>>& flows,
    std::uint32_t min_packet_bytes) {
  NETMON_REQUIRE(flows.size() == matrix.od_count(),
                 "flow populations must match routing-matrix ODs");
  std::vector<LinkSchedule> schedules(matrix.link_count());
  for (std::size_t k = 0; k < flows.size(); ++k) {
    const auto row = matrix.row(k);
    for (const traffic::Flow& flow : flows[k]) {
      PacketSpan span;
      span.key = flow.key;
      span.packets = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(flow.packets, 0xffffffffULL));
      if (span.packets == 0) continue;
      span.pkt_bytes = static_cast<std::uint32_t>(std::max<std::uint64_t>(
          flow.bytes / flow.packets, min_packet_bytes));
      span.start_sec = flow.start_sec;
      span.dt_sec = flow.end_sec > flow.start_sec
                        ? (flow.end_sec - flow.start_sec) / span.packets
                        : 0.0;
      span.fin_last = flow.key.proto == 6;  // TCP closes with FIN
      for (const auto& [column, fraction] : row) {
        const auto link = static_cast<topo::LinkId>(column);
        if (!flow_crosses(flow.key, link, fraction)) continue;
        schedules[link].spans.push_back(span);
      }
    }
  }
  for (LinkSchedule& schedule : schedules) schedule.finalize();
  return schedules;
}

std::unique_ptr<PacketSource> replay_schedule(topo::LinkId link,
                                              const LinkSchedule& schedule) {
  return std::make_unique<CalendarReplay>(link, schedule);
}

SyntheticTraffic::SyntheticTraffic(const routing::RoutingMatrix& matrix,
                                   const traffic::TrafficMatrix& tm,
                                   SyntheticOptions options)
    : options_(options) {
  NETMON_REQUIRE(tm.size() == matrix.od_count(),
                 "traffic matrix rows must match routing-matrix ODs");
  Rng rng(options_.seed);
  flows_ = traffic::generate_all_flows(rng, tm, options_.flowgen);
  schedules_ =
      build_link_schedules(matrix, flows_, options_.min_packet_bytes);
}

std::unique_ptr<PacketSource> SyntheticTraffic::source(
    topo::LinkId link) const {
  NETMON_REQUIRE(link < schedules_.size(), "link id out of range");
  return replay_schedule(link, schedules_[link]);
}

std::vector<std::unique_ptr<PacketSource>> SyntheticTraffic::sources(
    const sampling::RateVector& rates) const {
  std::vector<std::unique_ptr<PacketSource>> out;
  for (std::size_t link = 0; link < schedules_.size(); ++link) {
    if (link >= rates.size() || rates[link] <= 0.0) continue;
    if (schedules_[link].spans.empty()) continue;
    out.push_back(source(static_cast<topo::LinkId>(link)));
  }
  return out;
}

std::uint64_t SyntheticTraffic::packets_on(topo::LinkId link) const {
  NETMON_REQUIRE(link < schedules_.size(), "link id out of range");
  return schedules_[link].packets;
}

}  // namespace netmon::ingest
