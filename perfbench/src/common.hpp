// Shared machinery of the end-to-end benchmark: arguments, timing,
// percentiles, the span tracer, correctness gates, the hardware-class
// stamp and the one-line JSON result every workload prints last.
//
// The benchmark drives the netmon library only through its public
// headers; every span is recorded here, around the benchmark's own calls
// into a layer (ingest, control, tenant, serve, routing, core, opt).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "traffic/link_load.hpp"

namespace perfbench {

/// Iteration cap of every solve the benchmark requests or runs as a
/// reference: high enough that solves end certified (KKT) rather than at
/// the library's default cap of 2000, so timings are time-to-certified.
inline constexpr int kCertifyIterations = 100000;

/// Nanoseconds on the process steady clock.
using Ns = std::int64_t;

inline Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(Ns from, Ns to) {
  return static_cast<double>(to - from) * 1e-6;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed op count instead of a time budget (0 = time-bounded). In this
  /// mode open-loop workloads send one request at a time, so every count
  /// the result reports is a pure function of the seed (the determinism
  /// self-check in perfbench/selftest.py relies on it).
  long ops = 0;
  /// Where a traced run writes its spans (JSON lines); empty = not written.
  std::string spans_path;
};

/// Linear-interpolated quantile, q in [0, 1]. Empty input -> 0.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The highest percentile of the fixed ladder 50/90/99 that has at least
/// ten samples beyond it (the tail the benchmark reports; p99 is the
/// highest, so the tail does not drift to rarer percentiles as a faster
/// program completes more ops).
/// With fewer than 20 samples no rung qualifies; the maximum is reported
/// as percentile 100 with zero samples beyond.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values);

// --- Tracing ----------------------------------------------------------

/// One span: a benchmark call into a layer, or an interval a layer
/// reported about itself (Response::queue_ms / solve_ms).
struct SpanRecord {
  const char* name = "";
  Ns start = 0;
  Ns end = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;
};

/// In-memory span store, written out when the run ends. Spans of one op
/// share its id; the root span of an op is named "op". Single-threaded:
/// open-loop workloads record per-request timestamps on their own
/// threads and add the spans afterwards.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Tracing is on for this run (--trace 1).
  bool enabled() const noexcept { return enabled_; }
  /// Spans are recorded for the current op. Traced runs alternate traced
  /// and untraced ops so that one run measures the tracing overhead.
  bool active() const noexcept { return enabled_ && active_; }
  void set_active(bool active) noexcept { active_ = active; }

  /// Opens a span nested in the innermost open one; -1 when inactive.
  std::int32_t open(const char* name, std::uint32_t op);
  void close(std::int32_t index);
  /// Adds a closed span under `parent` (no effect when inactive).
  std::int32_t add(const char* name, std::uint32_t op, std::int32_t parent,
                   Ns start, Ns end);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Per-op ledger over the root "op" spans: each layer's self time
  /// (span minus its children), and how much of the op's wall time the
  /// spans under the root cover.
  struct Ledger {
    std::size_t ops = 0;
    double wall_ms = 0.0;
    double covered_ms = 0.0;
    /// covered / wall over all traced ops.
    double coverage = 0.0;
    /// Smallest per-op coverage.
    double worst_op_coverage = 0.0;
    /// Self time per layer (the span-name prefix before the first '.').
    std::map<std::string, double> self_ms;
  };
  Ledger ledger() const;

  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  bool active_ = true;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one call; free when the tracer is inactive.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint32_t op)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int32_t index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// --- Results ----------------------------------------------------------

/// Everything a workload reports. main() prints it as the last line.
struct Result {
  /// Correctness gates that failed (first few messages of each kind).
  std::vector<std::string> gate_failures;
  std::map<std::string, std::size_t> gate_counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced runs print these).
  std::map<std::string, double> e2e;
  /// Per-layer metrics (traced runs print these).
  std::map<std::string, double> layer;
  /// Deterministic counts (the self-check compares them across runs).
  std::map<std::string, double> counts;
  /// Free-form context printed beside the metrics.
  std::map<std::string, std::string> info;
  /// FNV-1a hash of the generated input stream.
  std::uint64_t stream_hash = 1469598103934665603ULL;

  /// Records a gate outcome; a false `ok` marks the run incorrect.
  void gate(bool ok, const std::string& what);
  bool correct() const noexcept { return gate_failures.empty(); }
  void hash(const void* data, std::size_t size);
  void hash_u64(std::uint64_t value) { hash(&value, sizeof(value)); }
};

/// The end-to-end metrics of a closed loop with one client, from its
/// per-op latencies and result.attempted/failed: op_p50_ms, op_tail_ms,
/// ops_per_s over the timed regions only (the sum of op times, so the
/// untimed checks between ops and the whole-op granularity of the run's
/// end do not enter it), ok_frac, and slo_rate_per_s — the rate the
/// client sustains when the tail is within `limit_ms` and nothing failed.
void closed_loop_metrics(Result& result, const std::vector<double>& op_ms,
                         double limit_ms);

/// Every placement invariant the benchmark gates on, for one solution of
/// `problem`: budget equality, box bounds, zero rate off the candidate
/// set, and certification (exact status optimal, or an approximation
/// with certified gap <= 1%). Returns false and records the failure.
bool check_placement(Result& result, const char* where,
                     const netmon::core::PlacementProblem& problem,
                     const netmon::core::PlacementSolution& solution);

/// Total utility of a cold exact solve of `problem` (the quality
/// reference), gated on being certified itself.
double reference_utility(Result& result,
                         const netmon::core::PlacementProblem& problem);

/// Budget spent by full-space `rates` under per-link `loads` (pkt/s) and
/// a measurement interval (u_j = U_j * interval).
double budget_spent(const netmon::traffic::LinkLoads& loads,
                    double interval_sec, const std::vector<double>& rates);

/// Peak resident set of the process so far, MB.
double peak_rss_mb();

/// Median wall seconds of repeated set-ups: at least `min_repeats`, and
/// more (up to 100) until `min_total_s` seconds were spent, so that a
/// cheap set-up is timed over many repetitions. `make` builds one
/// complete set-up; the last one built is kept in `out`.
template <typename T>
double timed_setups(int min_repeats, double min_total_s,
                    std::unique_ptr<T>& out,
                    const std::function<std::unique_ptr<T>()>& make) {
  std::vector<double> seconds;
  double total = 0.0;
  while (static_cast<int>(seconds.size()) < min_repeats ||
         (total < min_total_s && seconds.size() < 100)) {
    out.reset();
    const Ns start = now_ns();
    out = make();
    seconds.push_back(ms_between(start, now_ns()) * 1e-3);
    total += seconds.back();
  }
  return median(seconds);
}

/// Fills the ledger-derived per-layer metrics (coverage, shares,
/// traced/untraced p50 and overhead) and gates the ledger closure.
void ledger_metrics(Result& result, const Tracer& tracer,
                    const std::vector<double>& traced_op_ms,
                    const std::vector<double>& untraced_op_ms);

// Workload entry points (one per translation unit).
Result run_bin_cycle(const Args& args, Tracer& tracer);
Result run_query(const Args& args, Tracer& tracer, bool repeat);
Result run_scale_whatif(const Args& args, Tracer& tracer);

}  // namespace perfbench
