#include "opt/gradient_projection.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "linalg/lane_sum.hpp"
#include "runtime/parallel.hpp"
#include "util/error.hpp"

namespace netmon::opt {

namespace {

constexpr double kSnapLower = 1e-13;   // absolute snap-to-zero threshold
constexpr double kSnapUpperRel = 1e-13;  // relative snap-to-alpha threshold
// Fused path: full inner-product recompute cadence. Delta updates keep
// rho = R p in sync to within a few ulps per update; a periodic refresh
// (and one after any mass-update iteration) bounds the accumulated drift
// independently of the iteration count.
constexpr int kInnerRefreshInterval = 64;

// The O(n) reductions run in lane order (linalg/lane_sum.hpp) on the
// calling thread: a fixed order, so the iterate sequence is the same at
// every pool size and SIMD level.
double norm2(std::span<const double> v) {
  return std::sqrt(
      linalg::lane_sum(v.size(), [v](std::size_t j) { return v[j] * v[j]; }));
}

double dot(std::span<const double> a, std::span<const double> b) {
  return linalg::lane_sum(a.size(),
                          [a, b](std::size_t j) { return a[j] * b[j]; });
}

// Projects `v` onto the subspace of the active constraints: zero on bound-
// active coordinates, orthogonal (in the free coordinates) to the budget
// normal u. A non-null pool shards only the elementwise write pass, which
// is bit-identical under any sharding.
void project_direction(std::span<const double> v, std::span<const double> u,
                       const std::vector<BoundState>& bounds,
                       std::span<double> out,
                       runtime::ThreadPool* pool = nullptr) {
  const auto [vu, uu] =
      linalg::lane_sums<2>(v.size(), [&](std::size_t j) {
        const double w = bounds[j] == BoundState::kFree ? u[j] : 0.0;
        return std::array<double, 2>{v[j] * w, u[j] * w};
      });
  const double lambda = uu > 0.0 ? vu / uu : 0.0;
  auto write = [&](std::size_t j) {
    out[j] = bounds[j] == BoundState::kFree ? v[j] - lambda * u[j] : 0.0;
  };
  if (pool != nullptr) {
    runtime::parallel_for(*pool, v.size(), write);
  } else {
    for (std::size_t j = 0; j < v.size(); ++j) write(j);
  }
}

}  // namespace

SolveResult maximize(const Objective& f,
                     const BoxBudgetConstraints& constraints,
                     const SolverOptions& options,
                     const std::vector<double>* start,
                     SolverWorkspace* workspace) {
  const std::size_t n = constraints.dimension();
  NETMON_REQUIRE(f.dimension() == n,
                 "objective/constraint dimension mismatch");
  const std::vector<double>& u = constraints.loads();
  const std::vector<double>& alpha = constraints.upper();

  // Fused fast path: separable objectives evaluate value, gradient and
  // per-term M'/M'' from one matrix traversal, keep rho = R p patched
  // incrementally, and run line-search probes with no traversal at all.
  const SeparableConcaveObjective* sep =
      options.use_fused ? f.separable() : nullptr;

  // Intra-solve parallelism, engaged only above the instance-size
  // threshold: `par` shards term-dimension work (fused kernels, spmv,
  // probes), `par_dim` shards variable-dimension writes (projection,
  // clamps) and needs its own floor because the variable count is often
  // far below the term count. Null = the historical serial path.
  runtime::ThreadPool* const par =
      options.pool != nullptr && sep != nullptr &&
              sep->term_count() >= options.parallel_min_terms
          ? options.pool
          : nullptr;
  runtime::ThreadPool* const par_dim =
      par != nullptr && n >= options.parallel_min_terms ? par : nullptr;

  SolveResult result;
  result.p = start ? *start : constraints.initial_point();
  NETMON_REQUIRE(result.p.size() == n, "start point dimension mismatch");
  NETMON_REQUIRE(constraints.feasible(result.p, 1e-7),
                 "start point is infeasible");

  std::vector<BoundState>& bounds = result.bounds;
  bounds.assign(n, BoundState::kFree);

  // Whether g (and, on the fused path, current_value and m2_terms) were
  // produced at the CURRENT p — false as soon as p moves, so the next
  // iteration (or the exit path) knows whether an evaluation is needed.
  bool eval_current = false;
  double current_value = 0.0;
  std::span<const double> m2_terms;  // per-term M'' at p (fused path)

  // Every mutation of p after the inner products exist goes through
  // set_p, which mirrors the change into x via one CSC-column walk —
  // the incremental active-set update that replaces the full R p.
  bool maintain_x = false;
  std::span<double> x;
  std::size_t deltas_this_iter = 0;
  auto set_p = [&](std::size_t j, double v) {
    if (v == result.p[j]) return;
    if (maintain_x) {
      sep->inner_axpy(j, v - result.p[j], x);
      ++deltas_this_iter;
    }
    result.p[j] = v;
    eval_current = false;
  };
  auto classify = [&](std::size_t j) {
    if (result.p[j] <= kSnapLower) {
      set_p(j, 0.0);
      bounds[j] = BoundState::kAtLower;
    } else if (alpha[j] - result.p[j] <= kSnapUpperRel * alpha[j]) {
      set_p(j, alpha[j]);
      bounds[j] = BoundState::kAtUpper;
    } else {
      bounds[j] = BoundState::kFree;
    }
  };
  for (std::size_t j = 0; j < n; ++j) classify(j);

  // Redistributes budget drift (from snapping) over the free coordinates.
  auto correct_budget = [&] {
    const double drift = constraints.theta() - constraints.budget(result.p);
    if (std::abs(drift) <= 1e-12 * constraints.theta()) return;
    double uu = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (bounds[j] == BoundState::kFree) uu += u[j] * u[j];
    }
    if (uu <= 0.0) return;
    for (std::size_t j = 0; j < n; ++j) {
      if (bounds[j] != BoundState::kFree) continue;
      set_p(j, std::clamp(result.p[j] + drift * u[j] / uu, 0.0, alpha[j]));
    }
  };

  SolverWorkspace local;
  SolverWorkspace& ws = workspace ? *workspace : local;
  ws.g.resize(n);
  ws.s.resize(n);
  ws.d.resize(n);
  ws.s_prev.resize(n);
  ws.d_prev.resize(n);
  ws.dir_tmp.resize(n);
  ws.bounds_saved.resize(n);
  std::vector<double>& g = ws.g;
  std::vector<double>& s = ws.s;
  std::vector<double>& d = ws.d;
  std::vector<double>& s_prev = ws.s_prev;
  std::vector<double>& d_prev = ws.d_prev;
  bool have_prev = false;
  // The restriction keeps its term partition across resets on the same
  // objective; a reused workspace may hold one from another problem
  // that lived at this objective's address.
  ws.restriction.invalidate();

  // Full inner-product recompute, sharded when the pool is engaged.
  auto refresh_inner = [&] {
    if (par != nullptr) {
      sep->inner_into(result.p, x, *par);
    } else {
      sep->inner_into(result.p, x);
    }
  };

  if (sep != nullptr) {
    ws.x.resize(sep->term_count());
    x = {ws.x.data(), ws.x.size()};
    refresh_inner();
    maintain_x = true;
  }

  int iters_since_refresh = 0;

  int iter = 0;

  // Opt-in iteration tracing. Everything below only READS solver state:
  // with trace unset the iterate sequence is bit-identical, and with it
  // set the only extra per-iteration work is two O(n) reductions plus
  // one lock-free ring append — no allocation either way.
  obs::SolverTrace* const trace = options.trace;
  const std::uint64_t solve_id = trace ? trace->begin_solve() : 0;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // Every record's KKT fields come from ws.kkt, which each iteration
  // fills at its iterate before it moves p.
  auto trace_iter = [&](double snorm, double step) {
    if (trace == nullptr) return;
    obs::TraceRecord r;
    r.solve_id = solve_id;
    r.iteration = static_cast<std::uint32_t>(iter);
    r.fused = sep != nullptr;
    r.value = sep != nullptr ? current_value : kNan;
    // One fused pass, four max accumulators: a single max chain over
    // |g| is latency-bound and would dominate the per-iteration tax.
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
    std::uint32_t active = 0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      m0 = std::max(m0, std::abs(g[j]));
      m1 = std::max(m1, std::abs(g[j + 1]));
      m2 = std::max(m2, std::abs(g[j + 2]));
      m3 = std::max(m3, std::abs(g[j + 3]));
      active += (bounds[j] != BoundState::kFree) +
                (bounds[j + 1] != BoundState::kFree) +
                (bounds[j + 2] != BoundState::kFree) +
                (bounds[j + 3] != BoundState::kFree);
    }
    for (; j < n; ++j) {
      m0 = std::max(m0, std::abs(g[j]));
      active += bounds[j] != BoundState::kFree;
    }
    r.grad_inf = std::max(std::max(m0, m1), std::max(m2, m3));
    r.proj_grad_norm = snorm;
    r.step = step;
    r.active_set = active;
    r.restriction_terms =
        sep != nullptr && step > 0.0
            ? static_cast<std::uint32_t>(ws.restriction.active_terms())
            : 0;
    r.kkt_lambda = ws.kkt.lambda;
    r.kkt_residual = ws.kkt.worst;
    trace->record(r);
  };
  while (iter < options.max_iterations) {
    if (options.should_stop && options.should_stop(iter)) {
      result.status = SolveStatus::kCancelled;
      break;
    }
    ++iter;
    deltas_this_iter = 0;
    // A release leaves p (and so g) as it was, and an accepted bulk step
    // already evaluated its point: only a moved p needs an evaluation.
    if (!eval_current) {
      if (sep != nullptr) {
        const SeparableConcaveObjective::FusedEval fe =
            sep->fused_eval_from_inner(x, g, ws.eval, par);
        current_value = fe.value;
        m2_terms = fe.m2;
      } else {
        f.gradient(result.p, g, ws.eval);
      }
      eval_current = true;
    }
    project_direction(g, u, bounds, s, par_dim);

    double snorm = norm2(s);
    const double gnorm = norm2(g);
    // Multipliers on the current face, every iteration: the certificate
    // at stationarity, the drop test below otherwise.
    compute_kkt(g, u, bounds, options.kkt_tol, ws.kkt);
    if (snorm <= options.grad_tol * (1.0 + gnorm)) {
      result.lambda = ws.kkt.lambda;
      result.worst_multiplier = ws.kkt.worst;
      trace_iter(snorm, 0.0);
      if (ws.kkt.satisfied) {
        result.status = SolveStatus::kOptimal;
        break;
      }
      // Release every active constraint whose multiplier is negative
      // (paper §IV-D) and keep searching.
      for (std::size_t j : ws.kkt.violating) bounds[j] = BoundState::kFree;
      ++result.release_events;
      have_prev = false;
      continue;
    }

    // Rosen's drop test: a bound whose multiplier is more negative than
    // -||s|| is released now, not after the face has been searched to
    // stationarity. Same release rule as above, with a threshold that
    // tightens to the certificate's as s vanishes.
    if (ws.kkt.worst < -snorm) {
      for (std::size_t j = 0; j < n; ++j) {
        if ((bounds[j] == BoundState::kAtLower && ws.kkt.nu[j] < -snorm) ||
            (bounds[j] == BoundState::kAtUpper && ws.kkt.mu[j] < -snorm)) {
          bounds[j] = BoundState::kFree;
        }
      }
      ++result.release_events;
      have_prev = false;
      project_direction(g, u, bounds, s, par_dim);
      snorm = norm2(s);
    }

    // Search direction: projected gradient, optionally conjugate-mixed.
    d = s;
    if (options.polak_ribiere && have_prev) {
      const auto [num, den] = linalg::lane_sums<2>(n, [&](std::size_t j) {
        return std::array<double, 2>{s[j] * (s[j] - s_prev[j]),
                                     s_prev[j] * s_prev[j]};
      });
      const double beta = den > 0.0 ? std::max(0.0, num / den) : 0.0;
      if (beta > 0.0) {
        for (std::size_t j = 0; j < n; ++j) d[j] = s[j] + beta * d_prev[j];
        // Keep d inside the active subspace and ascending.
        std::copy(d.begin(), d.end(), ws.dir_tmp.begin());
        project_direction(ws.dir_tmp, u, bounds, d, par_dim);
        if (dot(d, g) <= 0.0) d = s;
      }
    }

    // Longest feasible step along d: the first breakpoint of a free
    // coordinate (infinite where d_j = 0).
    auto breakpoint = [&](std::size_t j) {
      if (d[j] > 0.0) return (alpha[j] - result.p[j]) / d[j];
      if (d[j] < 0.0) return result.p[j] / -d[j];
      return std::numeric_limits<double>::infinity();
    };
    double t_max = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (bounds[j] == BoundState::kFree) t_max = std::min(t_max, breakpoint(j));
    }
    if (!std::isfinite(t_max) || t_max <= 0.0) {
      // Numerically stuck against a bound: activate the offender(s).
      bool changed = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] != BoundState::kFree) continue;
        if ((d[j] < 0.0 && result.p[j] <= kSnapLower) ||
            (d[j] > 0.0 && alpha[j] - result.p[j] <= kSnapUpperRel * alpha[j])) {
          classify(j);
          changed = changed || bounds[j] != BoundState::kFree;
        }
      }
      have_prev = false;
      trace_iter(snorm, 0.0);
      if (!changed) break;  // nothing to activate: give up this path
      continue;
    }

    // 1-D search. phi'(0) = dot(g, d) is already in hand — the search
    // never re-evaluates the objective at t = 0.
    const double phi0 = dot(g, d);
    LineSearchResult ls;
    if (sep != nullptr) {
      // One traversal for rd = R d; every probe after that is a batched
      // pass over the terms the direction actually touches. phi''(0)
      // comes for free from this iteration's fused M''.
      ws.restriction.reset(*sep, x, d, m2_terms, par);
      ls = maximize_phi(ws.restriction, t_max, options.line_search, phi0);
    } else {
      GenericPhi phi(f, result.p, d, ws.eval);
      ls = maximize_phi(phi, t_max, options.line_search, phi0);
    }
    if (phi0 > 0.0) {  // the search probed t_max, then ls.iters more
      ++result.line_searches;
      result.interior_searches += ls.hit_boundary ? 0 : 1;
      result.line_search_probes += 1 + ls.iters;
    }
    if (ls.t <= 0.0) {
      // No numerical progress possible along d: decide via the KKT
      // multipliers, exactly as when the projected gradient vanishes.
      compute_kkt(g, u, bounds, options.kkt_tol, ws.kkt);
      result.lambda = ws.kkt.lambda;
      result.worst_multiplier = ws.kkt.worst;
      trace_iter(snorm, 0.0);
      if (ws.kkt.satisfied) {
        result.status = SolveStatus::kOptimal;
        break;
      }
      for (std::size_t j : ws.kkt.violating) bounds[j] = BoundState::kFree;
      ++result.release_events;
      have_prev = false;
      continue;
    }

    // Bulk activation. A blocked step stops at the first breakpoint, but
    // along d the objective keeps rising to about t_ext = t_max - phi'/
    // phi'' (one Newton step from the probe at t_max). Every free
    // coordinate whose breakpoint lies before t_ext is pinned to the
    // bound it runs into, and the remaining free coordinates absorb the
    // budget this moves along u. The step activates only its blocking
    // bound instead when nothing lies between t_max and t_ext, when the
    // remaining coordinates cannot absorb the budget inside their boxes,
    // or when the bulk point is no better than p. The extrapolation is
    // only a model; without that last check a bulk step can lose value,
    // and pins and drop-test releases can then undo each other until the
    // iteration cap (BulkStepThatLosesValueIsRejected).
    //
    // Where the step leaves free coordinate j, and where a pin puts it.
    auto stepped = [&](std::size_t j) {
      return std::clamp(result.p[j] + ls.t * d[j], 0.0, alpha[j]);
    };
    auto pin = [&](std::size_t j) { return d[j] < 0.0 ? 0.0 : alpha[j]; };
    double t_ext = 0.0;
    double shift = 0.0;  // budget absorption along u, per unit u_j
    bool bulk = false;
    if (ls.hit_boundary && ls.second_at_max < 0.0) {
      t_ext = ls.t - ls.first_at_max / ls.second_at_max;
      double moved_budget = 0.0, uu = 0.0;
      bool beyond_block = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] != BoundState::kFree) continue;
        const double b = breakpoint(j);
        if (b < t_ext) {
          moved_budget += u[j] * (pin(j) - stepped(j));
          beyond_block = beyond_block || b > ls.t;
        } else {
          uu += u[j] * u[j];
        }
      }
      if (beyond_block && uu > 0.0) {
        shift = -moved_budget / uu;
        bulk = true;
        for (std::size_t j = 0; j < n && bulk; ++j) {
          if (bounds[j] != BoundState::kFree || breakpoint(j) < t_ext) continue;
          const double v = stepped(j) + shift * u[j];
          bulk = v >= 0.0 && v <= alpha[j];
        }
      }
    }
    if (bulk) {
      // Keep p and its active set for the fallback, then build the bulk
      // point. Every free coordinate moves, so p is written directly and
      // the inner products are recomputed once instead of one column walk
      // per coordinate.
      const double value_before =
          sep != nullptr ? current_value : f.value(result.p, ws.eval);
      std::copy(result.p.begin(), result.p.end(), ws.dir_tmp.begin());
      std::copy(bounds.begin(), bounds.end(), ws.bounds_saved.begin());
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] != BoundState::kFree) continue;
        if (breakpoint(j) < t_ext) {
          result.p[j] = pin(j);
          bounds[j] = d[j] < 0.0 ? BoundState::kAtLower : BoundState::kAtUpper;
        } else {
          result.p[j] = std::clamp(stepped(j) + shift * u[j], 0.0, alpha[j]);
        }
      }
      if (maintain_x) refresh_inner();
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] == BoundState::kFree) classify(j);
      }
      correct_budget();
      // Evaluate the bulk point; on the fused path into s (unused after
      // a blocked step), so g stays at p if the point is rejected.
      SeparableConcaveObjective::FusedEval fe;
      if (sep != nullptr) fe = sep->fused_eval_from_inner(x, s, ws.eval, par);
      if ((sep != nullptr ? fe.value : f.value(result.p, ws.eval)) >
          value_before) {
        trace_iter(snorm, ls.t);
        ++result.activation_events;
        have_prev = false;
        eval_current = sep != nullptr;
        if (sep != nullptr) {
          g.swap(s);
          current_value = fe.value;
          m2_terms = fe.m2;
          iters_since_refresh = 0;
        }
        continue;
      }
      std::copy(ws.dir_tmp.begin(), ws.dir_tmp.end(), result.p.begin());
      std::copy(ws.bounds_saved.begin(), ws.bounds_saved.end(), bounds.begin());
      if (maintain_x) refresh_inner();
    }
    if (sep != nullptr) {
      // Dense inner-product update x += t * rd (rd cached from the line
      // search), then per-column corrections for the clamped coordinates
      // only — no full R p recompute.
      const std::span<const double> rd = ws.restriction.rd();
      if (par != nullptr) {
        const double t = ls.t;
        runtime::parallel_for(*par, rd.size(),
                              [&x, rd, t](std::size_t k) { x[k] += t * rd[k]; });
      } else {
        for (std::size_t k = 0; k < rd.size(); ++k) x[k] += ls.t * rd[k];
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double moved = result.p[j] + ls.t * d[j];
        const double v = std::clamp(moved, 0.0, alpha[j]);
        if (v != moved) {
          sep->inner_axpy(j, v - moved, x);
          ++deltas_this_iter;
        }
        result.p[j] = v;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        result.p[j] = std::clamp(result.p[j] + ls.t * d[j], 0.0, alpha[j]);
      }
    }
    eval_current = false;

    if (ls.hit_boundary) {
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] == BoundState::kFree) classify(j);
      }
      have_prev = false;  // active set changed: restart conjugacy
    } else {
      // Interior maximum along d; still snap coordinates that crept onto
      // a bound to keep t_max healthy next iteration.
      bool snapped = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] != BoundState::kFree) continue;
        classify(j);
        snapped = snapped || bounds[j] != BoundState::kFree;
      }
      if (snapped) {
        have_prev = false;
      } else {
        s_prev = s;
        d_prev = d;
        have_prev = true;
      }
    }
    correct_budget();
    trace_iter(snorm, ls.t);

    if (maintain_x && (++iters_since_refresh >= kInnerRefreshInterval ||
                       deltas_this_iter > n / 4)) {
      refresh_inner();
      iters_since_refresh = 0;
    }
  }

  result.iterations = iter;
  if (sep != nullptr) {
    if (!eval_current) {
      // One exact evaluation at the exit point: refresh rho and run the
      // fused kernel once (value + gradient in a single traversal).
      refresh_inner();
      const SeparableConcaveObjective::FusedEval fe =
          sep->fused_eval_from_inner(x, g, ws.eval, par);
      current_value = fe.value;
    }
    result.value = current_value;
  } else {
    result.value = f.value(result.p, ws.eval);
    if (result.status != SolveStatus::kOptimal && !eval_current) {
      f.gradient(result.p, g, ws.eval);
    }
  }
  if (result.status != SolveStatus::kOptimal) {
    // Final multipliers for diagnostics, from the gradient already in
    // ws.g — recomputed above only when p moved after the last fused
    // evaluation, never twice.
    compute_kkt(g, u, bounds, options.kkt_tol, ws.kkt);
    result.lambda = ws.kkt.lambda;
    result.worst_multiplier = ws.kkt.worst;
  }

  options.counters.iterations.inc(static_cast<std::uint64_t>(iter));
  options.counters.release_events.inc(
      static_cast<std::uint64_t>(result.release_events));
  options.counters.activation_events.inc(
      static_cast<std::uint64_t>(result.activation_events));
  options.counters.line_searches.inc(
      static_cast<std::uint64_t>(result.line_searches));
  options.counters.line_search_probes.inc(
      static_cast<std::uint64_t>(result.line_search_probes));
  options.counters.solves.inc();
  if (result.status == SolveStatus::kCancelled) options.counters.cancelled.inc();

  if (trace != nullptr) {
    // Summary record: KKT fields equal the SolveResult report exactly.
    obs::TraceRecord r;
    r.solve_id = solve_id;
    r.iteration = static_cast<std::uint32_t>(result.iterations);
    r.final_record = true;
    r.fused = sep != nullptr;
    r.status = static_cast<std::uint8_t>(result.status);
    r.value = result.value;
    double ginf = 0.0;
    for (double v : g) ginf = std::max(ginf, std::abs(v));
    r.grad_inf = ginf;
    r.proj_grad_norm = kNan;
    r.step = kNan;
    std::uint32_t active = 0;
    for (BoundState b : bounds) active += b != BoundState::kFree;
    r.active_set = active;
    r.kkt_lambda = result.lambda;
    r.kkt_residual = result.worst_multiplier;
    trace->record(r);
  }
  return result;
}

}  // namespace netmon::opt
