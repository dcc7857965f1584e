// Workloads query_mix and query_repeat (open loop): Poisson arrivals
// from one generator thread over at most two serve::TcpClient
// connections to a tenant::TenantService serving two tenants (GEANT
// with the JANET task, Abilene with its customer task).
//
//   query_mix     every RequestKind, no fingerprint ever repeats: the
//                 solver and the serve queue/batcher do the work, exact
//                 cache hits are bypassed.
//   query_repeat  requests drawn Zipf from a key set four times the
//                 default 256-entry SolveCache, plus near-misses that get
//                 warm-start donors; GEANT is republished with drifted
//                 loads every kRepublishEvery requests, so epochs bump
//                 mid-run. Most answers are exact hits: TCP, the wire
//                 codec, cache lookup/eviction and registry acquire
//                 dominate.
//
// A run measures the nominal rate first (the op metrics) and then climbs
// a fixed rate ladder until a rung misses the latency limit, fails a
// request or grows its backlog (slo_rate_per_s). Latency is timed from
// each request's scheduled send time. A collector thread detects
// completions; a rung whose generator lag exceeds kLagBoundMs is marked
// invalid and not counted.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "netmon.hpp"

namespace perfbench {
namespace {

using namespace netmon;

/// Generator lag (send time minus schedule) above which a rung is void.
constexpr double kLagBoundMs = 5.0;
/// query_repeat: distinct keys (the default cache holds 256 entries).
constexpr std::uint32_t kKeys = 1024;
constexpr double kZipfExponent = 1.0;
constexpr double kNearMissShare = 0.1;
constexpr std::uint64_t kRepublishEvery = 10000;
/// Responses re-solved exactly (outside the timed region) per run.
constexpr std::size_t kReferenceSamples = 48;

/// Nominal rate (the op metrics), the latency limit, and the rate ladder
/// above nominal (x1.12 steps, so a capacity that drifts with the host
/// moves the result by one small step). The nominal rates sit at about a quarter
/// of this machine class's capacity, the limits at the knee of the
/// p99-vs-rate curve, and the ladders straddle saturation.
struct Profile {
  double nominal_rate;       // requests/s of the op-metric phase
  double limit_ms;           // latency limit on the tail
  std::vector<double> ladder;  // rungs above nominal, ascending
};

Profile profile(bool repeat) {
  if (repeat)
    return {3000.0, 50.0,
            {9400, 10500, 11800, 13200, 14800, 16500, 18500, 20700, 23200}};
  return {1500.0, 40.0,
          {3000, 3400, 3800, 4300, 4800, 5400, 6000, 6700, 7500}};
}

struct TenantCtx {
  std::string name;
  tenant::TenantModel model;
  std::vector<topo::LinkId> failable;
};

TenantCtx geant_tenant() {
  const core::GeantScenario scenario = core::make_geant_scenario();
  TenantCtx t;
  t.name = "geant";
  t.model.graph = scenario.net.graph;
  t.model.task = scenario.task;
  t.model.loads = scenario.loads;
  return t;
}

TenantCtx abilene_tenant() {
  const topo::AbileneNetwork abilene = topo::make_abilene();
  TenantCtx t;
  t.name = "abilene";
  t.model.graph = abilene.graph;
  t.model.task.interval_sec = 300.0;
  traffic::TrafficMatrix demands = traffic::gravity_matrix(
      abilene.graph, {.total_pkt_per_sec = 6.0e5, .min_mass = 1e-12});
  for (const auto& [name, rate] : topo::abilene_task_rates()) {
    const topo::NodeId dst = *abilene.graph.find_node(name);
    t.model.task.ods.push_back({abilene.customer, dst});
    t.model.task.expected_packets.push_back(rate * 300.0);
    demands.push_back({{abilene.customer, dst}, rate});
  }
  t.model.loads = traffic::link_loads(abilene.graph, demands);
  t.model.problem.theta = 50000.0;
  return t;
}

/// Candidate links whose single failure still yields a valid problem.
void find_failable(TenantCtx& t) {
  const core::PlacementProblem base(t.model.graph, t.model.task,
                                    t.model.loads, t.model.problem);
  for (const topo::LinkId link : base.candidates()) {
    core::ProblemOptions options = t.model.problem;
    options.failed.insert(link);
    try {
      (void)core::PlacementProblem(t.model.graph, t.model.task, t.model.loads,
                                   options);
      t.failable.push_back(link);
    } catch (const Error&) {
    }
  }
  if (t.failable.size() < 4) throw Error("query: too few failable links");
}

/// Loads of GEANT epoch `epoch` (1 = as generated): each republish
/// drifts every link by a seeded +-5%.
std::vector<traffic::LinkLoads> drifted_loads(const traffic::LinkLoads& base,
                                              std::uint64_t seed,
                                              std::size_t epochs) {
  std::vector<traffic::LinkLoads> out{base};
  Rng rng(seed ^ 0xd1f7ULL);
  for (std::size_t e = 1; e < epochs; ++e) {
    traffic::LinkLoads next = out.back();
    for (double& load : next) load *= rng.uniform(0.95, 1.05);
    out.push_back(std::move(next));
  }
  return out;
}

struct Setup {
  std::vector<TenantCtx> tenants;
  std::vector<traffic::LinkLoads> geant_loads;  // index = epoch - 1
  tenant::TenantRegistry registry;
  std::unique_ptr<tenant::TenantService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::vector<std::unique_ptr<serve::TcpClient>> clients;

  Setup(std::uint64_t seed, std::size_t epochs, unsigned connections) {
    tenants.push_back(geant_tenant());
    tenants.push_back(abilene_tenant());
    for (TenantCtx& t : tenants) {
      find_failable(t);
      registry.publish(t.name, t.model);
    }
    geant_loads = drifted_loads(tenants[0].model.loads, seed, epochs);
    tenant::TenantServiceOptions options;
    // Deep enough to absorb a host stall of tens of ms at the top rungs;
    // a real overload still fills it and shows as refusals.
    options.queue_capacity = 1024;
    // At the default 2000-iteration cap a rare warm what-if stops
    // uncertified, which the placement gate rejects.
    options.solver.max_iterations = kCertifyIterations;
    service = std::make_unique<tenant::TenantService>(registry, options);
    server = std::make_unique<serve::TcpServer>(*service);
    for (unsigned c = 0; c < connections; ++c)
      clients.push_back(
          std::make_unique<serve::TcpClient>("127.0.0.1", server->port()));
  }
};

/// A request of the mix: tenant, kind, theta and failures are seeded by
/// (seed, index); continuous thetas make every fingerprint distinct.
serve::Request mix_request(const std::vector<TenantCtx>& tenants,
                           std::uint64_t seed, std::uint64_t index,
                           bool sweeps) {
  Rng rng = Rng(seed).substream(index);
  const TenantCtx& t = tenants[rng.uniform() < 0.7 ? 0 : 1];
  serve::Request r;
  r.tenant = t.name;
  const double theta0 = t.model.problem.theta;
  r.theta = theta0 * rng.uniform(0.5, 1.5);
  const auto pick = [&] {
    return t.failable[static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(t.failable.size()))];
  };
  const double kind = rng.uniform();
  if (kind < 0.4) {
    r.kind = serve::RequestKind::kSolve;
    if (rng.uniform() < 0.2) r.failed.push_back(pick());
  } else if (kind < 0.6) {
    r.kind = serve::RequestKind::kWhatIfBatch;
    while (r.what_if.size() < 3) {
      const topo::LinkId link = pick();
      if (std::none_of(r.what_if.begin(), r.what_if.end(),
                       [&](const auto& s) { return s[0] == link; }))
        r.what_if.push_back({link});
    }
  } else if (kind < 0.8 && sweeps) {
    r.kind = serve::RequestKind::kThetaSweep;
    for (int k = 0; k < 4; ++k)
      r.thetas.push_back(theta0 * rng.uniform(0.5, 1.5));
    std::sort(r.thetas.begin(), r.thetas.end());
  } else {
    r.kind = serve::RequestKind::kAccuracyReport;
  }
  return r;
}

/// The request stream of a workload: a pure function of (seed, index).
class Stream {
 public:
  Stream(const std::vector<TenantCtx>& tenants, std::uint64_t seed,
         bool repeat)
      : tenants_(tenants), seed_(seed), repeat_(repeat) {
    double total = 0.0;
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      total += 1.0 / std::pow(k + 1.0, kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// Request `index`, its cache key (query_repeat; index otherwise).
  serve::Request request(std::uint64_t index, std::uint32_t& key) const {
    if (!repeat_) {
      key = static_cast<std::uint32_t>(index);
      return mix_request(tenants_, seed_, index, /*sweeps=*/true);
    }
    Rng rng = Rng(seed_ ^ 0x5eedULL).substream(index);
    const double u = rng.uniform();
    key = static_cast<std::uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    key = std::min(key, kKeys - 1);
    serve::Request r = mix_request(tenants_, seed_, key, /*sweeps=*/false);
    if (rng.uniform() < kNearMissShare) {
      // A near miss: a fresh theta next to the key's, warm-started from
      // the cached neighbour.
      r.theta *= 1.0 + 1e-3 * (1.0 + rng.uniform());
      key = kKeys + static_cast<std::uint32_t>(index);
    }
    return r;
  }

 private:
  const std::vector<TenantCtx>& tenants_;
  std::uint64_t seed_;
  bool repeat_;
  std::vector<double> cdf_;
};

/// One sent request, filled by the generator (send side) and the
/// collector (answer side).
struct Record {
  Ns scheduled = 0, send_start = 0, send_end = 0, done = 0;
  std::uint32_t key = 0;
  std::uint32_t send_epoch = 1;  // GEANT epoch when sent
  std::uint32_t epoch = 0;       // epoch the answer was solved on (0 = none)
  int phase = 0;
  bool geant = false;
  serve::RequestKind kind = serve::RequestKind::kSolve;
  serve::ResponseStatus status = serve::ResponseStatus::kShutdown;
  serve::CacheOutcome cache = serve::CacheOutcome::kNone;
  bool id_ok = false;
  bool valid = false;  // placement gates passed (kOk only)
  std::uint64_t hash = 0;
  double queue_ms = 0.0, solve_ms = 0.0;
  std::uint32_t batch_size = 0;
  std::uint32_t solver_iterations = 0;
};

std::uint64_t answer_hash(const serve::Response& response) {
  Result h;
  for (const core::PlacementSolution& s : response.solutions) {
    h.hash(s.rates.data(), s.rates.size() * sizeof(double));
    h.hash(&s.total_utility, sizeof(double));
    h.hash(&s.lambda, sizeof(double));
    h.hash_u64(static_cast<std::uint64_t>(s.iterations));
  }
  for (const serve::ThetaPoint& p : response.sweep) h.hash(&p, sizeof(p));
  return h.stream_hash;
}

/// Shared state of one run between the generator, the collector and the
/// final checks.
class Engine {
 public:
  Engine(Setup& setup, const Stream& stream, std::size_t capacity)
      : setup_(setup), stream_(stream) {
    records_.resize(capacity);
  }

  std::vector<Record>& records() { return records_; }
  std::size_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  /// Full responses kept for the reference re-solve (index -> answer).
  std::map<std::size_t, serve::Response>& samples() { return samples_; }

  void start_collector() {
    collector_ = std::thread([this] { collect(); });
  }
  void stop_collector() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_sending_ = true;
    }
    cv_.notify_one();
    if (collector_.joinable()) collector_.join();
  }
  ~Engine() { stop_collector(); }

  /// Sends request `index` (which must be sent in index order) at its
  /// scheduled time. Returns false when the record capacity is spent.
  bool send(std::size_t index, Ns scheduled, int phase,
            std::uint32_t geant_epoch) {
    if (index >= records_.size()) return false;
    std::uint32_t key = 0;
    serve::Request request = stream_.request(index, key);
    request.id = index + 1;
    Record& rec = records_[index];
    rec.scheduled = scheduled;
    rec.key = key;
    rec.phase = phase;
    rec.geant = request.tenant == "geant";
    rec.send_epoch = rec.geant ? geant_epoch : 1;  // only GEANT republishes
    rec.kind = request.kind;
    const Ns now = now_ns();
    if (now < scheduled)
      std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
    serve::TcpClient& client =
        *setup_.clients[index % setup_.clients.size()];
    rec.send_start = now_ns();
    std::future<serve::Response> future = client.send(std::move(request));
    rec.send_end = now_ns();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      handoff_.emplace_back(index, std::move(future));
    }
    cv_.notify_one();
    sent_ = index + 1;
    return true;
  }

  /// Waits until every sent request is answered (or `timeout_s` passes).
  bool drain(double timeout_s) {
    const Ns until = now_ns() + static_cast<Ns>(timeout_s * 1e9);
    while (completed() < sent_) {
      if (now_ns() > until) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

 private:
  using Pending = std::pair<std::size_t, std::future<serve::Response>>;

  void collect() {
    std::vector<Pending> outstanding;
    std::vector<Pending> incoming;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (outstanding.empty())
          cv_.wait(lock, [&] { return !handoff_.empty() || done_sending_; });
        if (outstanding.empty() && handoff_.empty() && done_sending_) return;
        incoming.swap(handoff_);
      }
      for (Pending& p : incoming) outstanding.push_back(std::move(p));
      incoming.clear();
      bool any = false;
      std::size_t keep = 0;
      for (std::size_t i = 0; i < outstanding.size(); ++i) {
        if (outstanding[i].second.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finish(outstanding[i].first, outstanding[i].second.get());
          any = true;
        } else {
          if (keep != i) outstanding[keep] = std::move(outstanding[i]);
          ++keep;
        }
      }
      outstanding.resize(keep);
      if (!any && !outstanding.empty())
        outstanding.front().second.wait_for(std::chrono::microseconds(50));
    }
  }

  /// Records one answer and runs the cheap per-answer gates: the id
  /// echo, budget equality and box bounds of every placement under the
  /// epoch it was solved on (which identifies that epoch), and
  /// certification.
  void finish(std::size_t index, serve::Response response) {
    Record& rec = records_[index];
    rec.done = now_ns();
    rec.status = response.status;
    rec.cache = response.cache;
    rec.id_ok = response.id == index + 1;
    rec.queue_ms = response.queue_ms;
    rec.solve_ms = response.solve_ms;
    rec.batch_size = response.batch_size;
    if (response.status == serve::ResponseStatus::kOk) {
      rec.hash = answer_hash(response);
      rec.valid = validate(rec, index, response);
      for (const core::PlacementSolution& s : response.solutions)
        rec.solver_iterations += static_cast<std::uint32_t>(s.iterations);
      if (index % sample_stride_ == 0 && samples_.size() < kReferenceSamples)
        samples_.emplace(index, std::move(response));
    }
    completed_.fetch_add(1, std::memory_order_release);
  }

  bool validate(Record& rec, std::size_t index,
                const serve::Response& response) {
    std::uint32_t key = 0;
    const serve::Request request = stream_.request(index, key);
    const TenantCtx& t = setup_.tenants[rec.geant ? 0 : 1];
    const double theta =
        request.theta > 0.0 ? request.theta : t.model.problem.theta;
    const double interval = t.model.task.interval_sec;
    if (response.kind == serve::RequestKind::kThetaSweep) {
      if (response.sweep.size() != request.thetas.size()) return false;
      for (std::size_t i = 0; i < response.sweep.size(); ++i) {
        const serve::ThetaPoint& p = response.sweep[i];
        if (p.theta != request.thetas[i] || !std::isfinite(p.total_utility))
          return false;
        if (i > 0 && p.total_utility < response.sweep[i - 1].total_utility)
          return false;
      }
      rec.epoch = rec.send_epoch;
      return true;
    }
    const std::size_t expected =
        request.kind == serve::RequestKind::kWhatIfBatch
            ? request.what_if.size()
            : 1;
    if (response.solutions.size() != expected) return false;
    // Candidate epochs: the one in force at send, or the next one (the
    // server resolves the tenant when the frame arrives).
    const std::uint32_t first = rec.send_epoch;
    const std::uint32_t last =
        rec.geant ? std::min<std::uint32_t>(
                        first + 1,
                        static_cast<std::uint32_t>(setup_.geant_loads.size()))
                  : first;
    for (std::uint32_t e = first; e <= last; ++e) {
      const traffic::LinkLoads& loads =
          rec.geant ? setup_.geant_loads[e - 1] : t.model.loads;
      bool fits = true;
      for (const core::PlacementSolution& s : response.solutions) {
        const double spent = budget_spent(loads, interval, s.rates);
        fits = fits && std::abs(spent - theta) <= 1e-6 * theta;
      }
      if (fits) {
        rec.epoch = e;
        break;
      }
    }
    if (rec.epoch == 0) return false;
    const double alpha = request.default_alpha > 0.0
                             ? request.default_alpha
                             : t.model.problem.default_alpha;
    for (const core::PlacementSolution& s : response.solutions) {
      if (s.status != opt::SolveStatus::kOptimal ||
          s.tier != core::SolveTier::kExact)
        return false;
      for (const double r : s.rates)
        if (!(r >= 0.0 && r <= alpha + 1e-12)) return false;
    }
    return true;
  }

  Setup& setup_;
  const Stream& stream_;
  std::vector<Record> records_;
  std::size_t sent_ = 0;  // generator thread only
  std::atomic<std::size_t> completed_{0};
  std::size_t sample_stride_ = 97;
  std::map<std::size_t, serve::Response> samples_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Pending> handoff_;  // guarded by mutex_
  bool done_sending_ = false;     // guarded by mutex_
  std::thread collector_;
};

struct PhaseStats {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::size_t backlog_max = 0;
  std::size_t backlog_end = 0;
  double seconds = 0.0;
  bool drained = false;
  /// Latencies by schedule window (equal slices of the phase).
  std::vector<std::vector<double>> windows;

  /// A rung whose generator ran late is void: it measured the generator.
  bool valid() const { return tail_of(lag_ms).value <= kLagBoundMs; }

  /// Within the latency limit in most of its windows (the median window
  /// tail: one host stall does not fail a rung, a queue that builds over
  /// the rung does), nothing failed, and the backlog did not grow: by
  /// Little's law a latency within the limit keeps at most rate x limit
  /// requests in flight at the rung's last send.
  bool passes(double limit_ms) const {
    std::vector<double> tails;
    for (const std::vector<double>& w : windows)
      if (!w.empty()) tails.push_back(tail_of(w).value);
    const bool backlog_ok = static_cast<double>(backlog_end) <=
                            std::max(8.0, rate * limit_ms * 1e-3);
    return failed == 0 && drained && median(tails) <= limit_ms && backlog_ok;
  }

  /// The tail and the median of the least-disturbed schedule window. The
  /// host's scheduling noise comes in bursts that only ever add time, so
  /// as the repository's micro-benches take the minimum over blocks, the
  /// best window measures the program and not its neighbours.
  double best_window_tail() const { return best_window(true); }
  double best_window_p50() const { return best_window(false); }

 private:
  double best_window(bool tail) const {
    double best = 0.0;
    bool any = false;
    for (const std::vector<double>& w : windows) {
      if (w.empty()) continue;
      const double v = tail ? tail_of(w).value : median(w);
      best = any ? std::min(best, v) : v;
      any = true;
    }
    return best;
  }
};

/// Requests per schedule window of the nominal phase (a window p99 then
/// rests on >= 20 samples beyond it), at most kMaxWindows windows; ladder
/// rungs use kRungWindows.
constexpr double kWindowRequests = 2000.0;
constexpr int kMaxWindows = 10;
constexpr int kRungWindows = 3;

}  // namespace

Result run_query(const Args& args, Tracer& tracer, bool repeat) {
  Result result;
  const Profile prof = profile(repeat);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Generator + collector + connections <= nproc.
  const unsigned connections = std::clamp(nproc - std::min(nproc, 2u), 1u, 2u);
  // Records for every request the phases can schedule (warm-up and
  // nominal 40% of the run, the ladder 60% in equal rungs), with margin.
  double expected = prof.nominal_rate * 0.4 * args.seconds;
  for (const double rate : prof.ladder)
    expected += rate * 0.6 * args.seconds /
                static_cast<double>(prof.ladder.size());
  const std::size_t capacity =
      args.ops > 0 ? static_cast<std::size_t>(args.ops)
                   : static_cast<std::size_t>(expected * 1.3) + 4096;
  const std::size_t epochs = capacity / kRepublishEvery + 2;

  std::unique_ptr<Setup> setup;
  const double setup_s = timed_setups<Setup>(5, 0.5, setup, [&] {
    return std::make_unique<Setup>(args.seed, epochs, connections);
  });
  result.e2e["setup_s"] = setup_s;
  Setup& s = *setup;
  const Stream stream(s.tenants, args.seed, repeat);
  std::printf("  set-up %.3f s: tenants geant+abilene, %u connections\n",
              setup_s, connections);

  Engine engine(s, stream, capacity);
  engine.start_collector();
  std::uint32_t geant_epoch = 1;
  std::vector<double> publish_ms;
  std::size_t next = 0;
  const auto maybe_republish = [&] {
    if (!repeat || next == 0 || next % kRepublishEvery != 0) return;
    if (geant_epoch >= s.geant_loads.size()) return;
    tenant::TenantModel model = s.tenants[0].model;
    model.loads = s.geant_loads[geant_epoch];
    const Ns p0 = now_ns();
    geant_epoch = static_cast<std::uint32_t>(
        s.registry.publish("geant", std::move(model)));
    publish_ms.push_back(ms_between(p0, now_ns()));
  };

  Rng arrivals = Rng(args.seed ^ 0xa771ULL);
  std::vector<PhaseStats> phases;
  const auto run_phase = [&](int phase, double rate, double seconds,
                             int windows) {
    PhaseStats st;
    st.rate = rate;
    const std::size_t first = next;
    const Ns t0 = now_ns() + 1000000;
    const Ns end = t0 + static_cast<Ns>(seconds * 1e9);
    Ns at = t0;
    while (at < end) {
      maybe_republish();
      if (!engine.send(next, at, phase, geant_epoch)) break;
      const std::size_t backlog = next + 1 - engine.completed();
      st.backlog_max = std::max(st.backlog_max, backlog);
      st.backlog_end = backlog;
      ++next;
      at += static_cast<Ns>(-std::log(1.0 - arrivals.uniform()) / rate * 1e9);
    }
    st.seconds = ms_between(t0, end) * 1e-3;
    st.drained = engine.drain(10.0);
    st.windows.resize(windows);
    for (std::size_t i = first; i < next; ++i) {
      const Record& rec = engine.records()[i];
      ++st.sent;
      st.lag_ms.push_back(ms_between(rec.scheduled, rec.send_start));
      if (rec.done == 0) {
        ++st.failed;
        continue;
      }
      st.latency_ms.push_back(ms_between(rec.scheduled, rec.done));
      const auto w = static_cast<std::size_t>(
          static_cast<double>(rec.scheduled - t0) / (end - t0) * windows);
      st.windows[std::min<std::size_t>(w, windows - 1)].push_back(
          st.latency_ms.back());
      if (rec.status == serve::ResponseStatus::kOk && rec.valid && rec.id_ok)
        ++st.ok;
      else
        ++st.failed;
    }
    return st;
  };

  if (args.ops > 0) {
    // Deterministic mode: one request at a time, so cache outcomes and
    // solver work are a pure function of the seed.
    for (long i = 0; i < args.ops; ++i) {
      maybe_republish();
      engine.send(next, now_ns(), 0, geant_epoch);
      ++next;
      engine.drain(30.0);
    }
    PhaseStats st;
    st.rate = prof.nominal_rate;
    for (std::size_t i = 0; i < next; ++i) {
      const Record& rec = engine.records()[i];
      ++st.sent;
      st.latency_ms.push_back(ms_between(rec.scheduled, rec.done));
      if (rec.status == serve::ResponseStatus::kOk && rec.valid && rec.id_ok)
        ++st.ok;
      else
        ++st.failed;
    }
    st.seconds = 1.0;
    phases.push_back(std::move(st));
  } else {
    // A short warm-up at the nominal rate (answers are gated, latencies
    // are not reported), then the nominal phase and the ladder.
    (void)run_phase(0, prof.nominal_rate, args.seconds * 0.05, 1);
    const double nominal_s = args.seconds * 0.35;
    const double rung_s =
        prof.ladder.empty()
            ? 0.0
            : args.seconds * 0.6 / static_cast<double>(prof.ladder.size());
    const int windows = std::clamp(
        static_cast<int>(prof.nominal_rate * nominal_s / kWindowRequests), 1,
        kMaxWindows);
    phases.push_back(run_phase(0, prof.nominal_rate, nominal_s, windows));
    int failures_in_a_row = 0;
    for (std::size_t r = 0; r < prof.ladder.size() && failures_in_a_row < 2;
         ++r) {
      phases.push_back(run_phase(static_cast<int>(r + 1), prof.ladder[r],
                                 rung_s, kRungWindows));
      const PhaseStats& st = phases.back();
      if (!st.valid()) continue;
      failures_in_a_row = st.passes(prof.limit_ms) ? 0 : failures_in_a_row + 1;
    }
  }
  engine.drain(10.0);
  engine.stop_collector();

  // ---- gates over every answer of every phase ----
  std::vector<Record>& records = engine.records();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::uint64_t>>
      miss_hashes;  // (key, epoch) -> answers computed by the solver
  for (std::size_t i = 0; i < next; ++i) {
    const Record& rec = records[i];
    result.gate(rec.done != 0, "exactly one response: request " +
                                   std::to_string(i) + " unanswered");
    result.gate(rec.done == 0 || rec.id_ok,
                "response id: request " + std::to_string(i));
    if (rec.status == serve::ResponseStatus::kOk) {
      result.gate(rec.valid, "placement: request " + std::to_string(i) +
                                 " " + serve::to_string(rec.kind));
      if (rec.cache != serve::CacheOutcome::kHit)
        miss_hashes[{rec.key, rec.epoch}].push_back(rec.hash);
    } else if (rec.done != 0) {
      // Typed refusals are legitimate only under overload (ladder rungs).
      result.gate(rec.phase > 0 || args.ops > 0,
                  std::string("nominal refusal: ") +
                      serve::to_string(rec.status));
    }
  }
  std::size_t hits_checked = 0;
  for (std::size_t i = 0; i < next; ++i) {
    const Record& rec = records[i];
    if (rec.status != serve::ResponseStatus::kOk ||
        rec.cache != serve::CacheOutcome::kHit)
      continue;
    ++hits_checked;
    result.gate(rec.epoch >= rec.send_epoch,
                "cache hit from an earlier epoch: request " +
                    std::to_string(i));
    const auto it = miss_hashes.find({rec.key, rec.epoch});
    const bool identical =
        it != miss_hashes.end() &&
        std::find(it->second.begin(), it->second.end(), rec.hash) !=
            it->second.end();
    result.gate(identical, "cache hit not bit-identical to a same-epoch "
                           "miss: request " + std::to_string(i));
  }

  // Reference: exact cold re-solves of sampled answers, outside the
  // timed region.
  double ratio_min = 1.0;
  for (const auto& [index, response] : engine.samples()) {
    std::uint32_t key = 0;
    serve::Request request = stream.request(index, key);
    const Record& rec = records[index];
    const TenantCtx& t = s.tenants[rec.geant ? 0 : 1];
    const traffic::LinkLoads& loads =
        rec.geant ? s.geant_loads[std::max<std::uint32_t>(rec.epoch, 1) - 1]
                  : t.model.loads;
    const serve::ModelView view{&t.model.graph, &t.model.task, &loads,
                                &t.model.problem};
    std::deque<core::PlacementProblem> problems;
    serve::expand_request(view, request, problems);
    for (std::size_t j = 0; j < problems.size(); ++j) {
      const double reference = reference_utility(result, problems[j]);
      double delivered = 0.0;
      if (request.kind == serve::RequestKind::kThetaSweep) {
        delivered = response.sweep[j].total_utility;
      } else {
        delivered = response.solutions[j].total_utility;
        check_placement(result, "served answer", problems[j],
                        response.solutions[j]);
      }
      ratio_min = std::min(ratio_min, delivered / reference);
    }
  }

  // ---- metrics ----
  const PhaseStats& nominal = phases.front();
  result.attempted = nominal.sent;
  result.failed = nominal.failed;
  const Tail tail = tail_of(nominal.latency_ms);
  const bool windowed = !nominal.windows.empty();
  result.e2e["op_p50_ms"] =
      windowed ? nominal.best_window_p50() : median(nominal.latency_ms);
  result.e2e["op_tail_ms"] = windowed ? nominal.best_window_tail() : tail.value;
  result.e2e["ops_per_s"] =
      nominal.seconds > 0.0 ? static_cast<double>(nominal.ok) / nominal.seconds
                            : 0.0;
  result.e2e["ok_frac"] =
      nominal.sent > 0 ? static_cast<double>(nominal.ok) /
                             static_cast<double>(nominal.sent)
                       : 0.0;
  result.e2e["utility_ratio_min"] = ratio_min;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "best of %zu windows, p%g; %zu requests at %g/s "
                "(whole phase: p50 %.3f ms, p%g %.3f ms)",
                nominal.windows.size(), tail_of(nominal.windows.empty()
                                      ? nominal.latency_ms
                                      : nominal.windows[0]).percentile,
                tail.samples, prof.nominal_rate, median(nominal.latency_ms),
                tail.percentile, tail.value);
  result.info["op_tail"] = buf;
  std::string windows;
  for (const std::vector<double>& w : nominal.windows) {
    std::snprintf(buf, sizeof(buf), "%s%.3f/%.3f", windows.empty() ? "" : " ",
                  median(w), tail_of(w).value);
    windows += buf;
  }
  result.info["op_windows_p50_tail_ms"] = windows;

  double slo = 0.0;
  std::string ladder;
  for (std::size_t r = 0; r < phases.size(); ++r) {
    const PhaseStats& st = phases[r];
    const Tail t = tail_of(st.latency_ms);
    const bool valid = st.valid();
    const bool pass = valid && st.passes(prof.limit_ms);
    std::snprintf(buf, sizeof(buf), "%s%g/s:%s(p%g %.2fms, best window %.2fms, backlog %zu)",
                  r ? " " : "", st.rate,
                  !valid ? "invalid" : pass ? "pass" : "FAIL", t.percentile,
                  t.value, st.best_window_tail(), st.backlog_end);
    ladder += buf;
    if (valid && pass) slo = std::max(slo, st.rate);
  }
  result.e2e["slo_rate_per_s"] = slo;
  std::snprintf(buf, sizeof(buf), "limit %g ms; ", prof.limit_ms);
  result.info["slo_ladder"] = buf + ladder;

  const tenant::SolveCache& cache = s.service->cache();
  result.counts["requests"] = static_cast<double>(next);
  result.counts["cache_hits"] = static_cast<double>(cache.hits());
  result.counts["cache_misses"] = static_cast<double>(cache.misses());
  result.counts["cache_warm_starts"] = static_cast<double>(cache.warm_starts());
  result.counts["cache_evictions"] = static_cast<double>(cache.evictions());
  result.counts["solver_invocations"] =
      static_cast<double>(s.service->solver_invocations());
  double iterations = 0.0;
  for (std::size_t i = 0; i < next; ++i)
    iterations += records[i].cache == serve::CacheOutcome::kHit
                      ? 0.0
                      : records[i].solver_iterations;
  result.counts["solver_iterations"] = iterations;
  result.counts["epochs"] = geant_epoch;
  result.counts["hits_checked"] = static_cast<double>(hits_checked);
  for (std::size_t i = 0; i < next; ++i) {
    std::uint32_t key = 0;
    const serve::Request request = stream.request(i, key);
    const std::vector<std::uint8_t> bytes = serve::encode_request(request);
    result.hash(bytes.data(), bytes.size());
  }

  if (tracer.enabled()) {
    auto& L = result.layer;
    std::vector<double> traced_ms, untraced_ms, queue, solve, overhead,
        batch;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < nominal.sent; ++i) {
      const Record& rec = records[i];
      if (rec.done == 0) continue;
      if (rec.status == serve::ResponseStatus::kRejectedQueueFull ||
          rec.status == serve::ResponseStatus::kDeadlineExpired ||
          rec.status == serve::ResponseStatus::kShutdown)
        ++rejected;
      const double ms = ms_between(rec.scheduled, rec.done);
      const auto op = static_cast<std::uint32_t>(i);
      tracer.set_active(i % 2 == 0);
      (tracer.active() ? traced_ms : untraced_ms).push_back(ms);
      queue.push_back(rec.queue_ms);
      solve.push_back(rec.solve_ms);
      batch.push_back(rec.batch_size);
      overhead.push_back(ms_between(rec.send_start, rec.done) - rec.queue_ms -
                         rec.solve_ms);
      // Spans from the generator's and collector's timestamps: schedule
      // lag, the send call, then the round trip with the server's own
      // queue/solve split inside it.
      const std::int32_t root =
          tracer.add("op", op, -1, rec.scheduled, rec.done);
      tracer.add("loadgen.lag", op, root, rec.scheduled, rec.send_start);
      tracer.add("loadgen.send", op, root, rec.send_start, rec.send_end);
      const std::int32_t tcp =
          tracer.add("serve.tcp", op, root, rec.send_end, rec.done);
      const Ns solve_ns = static_cast<Ns>(rec.solve_ms * 1e6);
      const Ns queue_ns = static_cast<Ns>(rec.queue_ms * 1e6);
      tracer.add("serve.queue", op, tcp, rec.done - solve_ns - queue_ns,
                 rec.done - solve_ns);
      tracer.add("core.solve", op, tcp, rec.done - solve_ns, rec.done);
    }
    L["serve.queue_ms_p50"] = median(queue);
    L["serve.queue_ms_tail"] = tail_of(queue).value;
    L["serve.solve_ms_p50"] = median(solve);
    L["serve.batch_size_mean"] = mean(batch);
    L["serve.overhead_ms_p50"] = median(overhead);
    L["serve.rejected"] = static_cast<double>(rejected);
    L["serve.protocol_errors"] = static_cast<double>(s.server->protocol_errors());
    L["loadgen.lag_tail_ms"] = tail_of(nominal.lag_ms).value;
    L["loadgen.backlog_max"] = static_cast<double>(nominal.backlog_max);
    const double lookups = static_cast<double>(cache.hits() + cache.misses());
    L["tenant.cache_hit_frac"] =
        lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0;
    L["tenant.warm_frac"] =
        cache.misses() > 0 ? static_cast<double>(cache.warm_starts()) /
                                 static_cast<double>(cache.misses())
                           : 0.0;
    L["tenant.evictions_per_kreq"] =
        1000.0 * static_cast<double>(cache.evictions()) /
        static_cast<double>(std::max<std::size_t>(1, next));
    L["tenant.solves_per_req"] =
        static_cast<double>(s.service->solver_invocations()) /
        static_cast<double>(std::max<std::size_t>(1, next));
    std::size_t quota = 0;
    for (std::size_t i = 0; i < next; ++i)
      if (records[i].status == serve::ResponseStatus::kRejectedQuota) ++quota;
    L["tenant.quota_rejects"] = static_cast<double>(quota);
    L["tenant.publish_ms"] = median(publish_ms);
    // Wire codec cost on this run's own messages.
    std::vector<double> wire_us;
    for (const auto& [index, response] : engine.samples()) {
      std::uint32_t key = 0;
      const serve::Request request = stream.request(index, key);
      const std::vector<std::uint8_t> frame = serve::encode_response(response);
      const Ns w0 = now_ns();
      const std::vector<std::uint8_t> bytes = serve::encode_request(request);
      const serve::Response decoded = serve::decode_response(frame);
      wire_us.push_back(ms_between(w0, now_ns()) * 1e3);
      result.gate(decoded.id == response.id && !bytes.empty(),
                  "wire round trip");
    }
    L["serve.wire_us"] = median(wire_us);
    ledger_metrics(result, tracer, traced_ms, untraced_ms);
  }
  std::printf("  %zu requests, %zu hits checked, %u GEANT epochs\n", next,
              hits_checked, geant_epoch);
  return result;
}

}  // namespace perfbench
