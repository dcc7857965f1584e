#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/problem.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  const double n = static_cast<double>(values.size());
  for (const double p : {99.0, 90.0, 50.0}) {
    const double beyond = n * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      tail.percentile = p;
      tail.value = quantile(values, p / 100.0);
      tail.beyond = static_cast<std::size_t>(beyond);
      return tail;
    }
  }
  tail.value = *std::max_element(values.begin(), values.end());
  return tail;
}

// --- Tracer -----------------------------------------------------------

std::int32_t Tracer::open(const char* name, std::uint32_t op) {
  if (!active()) return -1;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, now_ns(), 0, parent, op});
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_ns();
  // Spans close in LIFO order (RAII); pop through the closed one.
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

std::int32_t Tracer::add(const char* name, std::uint32_t op,
                         std::int32_t parent, Ns start, Ns end) {
  if (!active()) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, start, end, parent, op});
  return index;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_)
    if (name == span.name) out.push_back(ms_between(span.start, span.end));
  return out;
}

Tracer::Ledger Tracer::ledger() const {
  Ledger ledger;
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_)
    if (span.parent >= 0)
      child_ms[static_cast<std::size_t>(span.parent)] +=
          ms_between(span.start, span.end);
  ledger.worst_op_coverage = 1.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const double dur = ms_between(span.start, span.end);
    if (span.parent < 0) {
      if (std::string_view(span.name) != "op") continue;
      ++ledger.ops;
      ledger.wall_ms += dur;
      ledger.covered_ms += child_ms[i];
      if (dur > 0.0)
        ledger.worst_op_coverage =
            std::min(ledger.worst_op_coverage, child_ms[i] / dur);
      continue;
    }
    const std::string name(span.name);
    const std::string layer = name.substr(0, name.find('.'));
    ledger.self_ms[layer] += dur - child_ms[i];
  }
  ledger.coverage =
      ledger.wall_ms > 0.0 ? ledger.covered_ms / ledger.wall_ms : 0.0;
  if (ledger.ops == 0) ledger.worst_op_coverage = 0.0;
  return ledger;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& span : spans_)
    std::fprintf(out,
                 "{\"name\":\"%s\",\"op\":%u,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span.name, span.op, span.parent,
                 static_cast<long long>(span.start),
                 static_cast<long long>(span.end));
  return std::fclose(out) == 0;
}

// --- Results ----------------------------------------------------------

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  const std::string kind = what.substr(0, what.find(':'));
  if (gate_counts[kind]++ < 3) gate_failures.push_back(what);
}

void Result::hash(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    stream_hash ^= bytes[i];
    stream_hash *= 1099511628211ULL;
  }
}

void closed_loop_metrics(Result& result, const std::vector<double>& op_ms,
                         double limit_ms) {
  const double timed_sec =
      std::accumulate(op_ms.begin(), op_ms.end(), 0.0) * 1e-3;
  const Tail tail = tail_of(op_ms);
  result.e2e["op_p50_ms"] = median(op_ms);
  result.e2e["op_tail_ms"] = tail.value;
  result.e2e["ops_per_s"] =
      timed_sec > 0.0 ? static_cast<double>(op_ms.size()) / timed_sec : 0.0;
  result.e2e["ok_frac"] =
      result.attempted > 0
          ? 1.0 - static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted)
          : 0.0;
  result.e2e["slo_rate_per_s"] =
      tail.value <= limit_ms && result.failed == 0 ? result.e2e["ops_per_s"]
                                                   : 0.0;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu ops (%zu beyond)",
                tail.percentile, tail.samples, tail.beyond);
  result.info["op_tail"] = buf;
  std::snprintf(buf, sizeof(buf), "closed loop; limit %g ms on op_tail_ms",
                limit_ms);
  result.info["slo"] = buf;
}

bool check_placement(Result& result, const char* where,
                     const netmon::core::PlacementProblem& problem,
                     const netmon::core::PlacementSolution& solution) {
  using netmon::core::SolveTier;
  const auto& constraints = problem.constraints();
  const std::vector<double> x = problem.compress(solution.rates);
  const std::string at(where);
  bool ok = true;

  const double theta = constraints.theta();
  const double spent = constraints.budget(x);
  if (!(std::abs(spent - theta) <= 1e-6 * theta)) {
    result.gate(false, "budget equality: " + at + " spends " +
                           std::to_string(spent) + " of " +
                           std::to_string(theta));
    ok = false;
  }
  const std::vector<double>& upper = constraints.upper();
  double on_candidates = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    on_candidates += x[j];
    if (!(x[j] >= 0.0 && x[j] <= upper[j] + 1e-12)) {
      result.gate(false, "box bounds: " + at);
      ok = false;
      break;
    }
  }
  double total = 0.0;
  for (const double rate : solution.rates) total += rate;
  if (!(std::abs(total - on_candidates) <= 1e-9 * std::max(1.0, total))) {
    result.gate(false, "off-candidate rate: " + at);
    ok = false;
  }

  // Certified: an exact solve with its KKT certificate (status optimal),
  // or an approximation labelled with a certified gap within 1%.
  const bool certified =
      solution.tier == SolveTier::kExact
          ? solution.status == netmon::opt::SolveStatus::kOptimal
          : solution.certified_gap <=
                0.01 * std::max(std::abs(solution.total_utility), 1e-12);
  if (!certified) {
    result.gate(false, "uncertified: " + at);
    ok = false;
  }
  return ok;
}

double reference_utility(Result& result,
                         const netmon::core::PlacementProblem& problem) {
  netmon::opt::SolverOptions options;
  options.max_iterations = kCertifyIterations;
  const netmon::core::PlacementSolution reference =
      netmon::core::solve_placement(problem, options);
  result.gate(reference.status == netmon::opt::SolveStatus::kOptimal,
              "reference uncertified");
  return reference.total_utility;
}

double budget_spent(const netmon::traffic::LinkLoads& loads,
                    double interval_sec, const std::vector<double>& rates) {
  double spent = 0.0;
  for (std::size_t l = 0; l < rates.size() && l < loads.size(); ++l)
    spent += loads[l] * interval_sec * rates[l];
  return spent;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ledger_metrics(Result& result, const Tracer& tracer,
                    const std::vector<double>& traced_op_ms,
                    const std::vector<double>& untraced_op_ms) {
  const Tracer::Ledger ledger = tracer.ledger();
  result.layer["ledger.coverage"] = ledger.coverage;
  for (const auto& [layer, self_ms] : ledger.self_ms)
    if (ledger.wall_ms > 0.0)
      result.layer["share." + layer] = self_ms / ledger.wall_ms;
  const double traced = median(traced_op_ms);
  const double untraced = median(untraced_op_ms);
  result.layer["trace.op_p50_ms_traced"] = traced;
  result.layer["trace.op_p50_ms_untraced"] = untraced;
  result.layer["trace.overhead_frac"] =
      untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%zu traced ops, coverage %.4f (worst op %.4f)", ledger.ops,
                ledger.coverage, ledger.worst_op_coverage);
  result.info["ledger"] = buf;
  // The ledger must close: the layer spans plus the benchmark's glue
  // spans account for the op's wall time within 10%.
  result.gate(ledger.ops > 0 && ledger.coverage >= 0.9 &&
                  ledger.coverage <= 1.0 + 1e-9,
              "ledger: coverage " + std::to_string(ledger.coverage));
}

}  // namespace perfbench
