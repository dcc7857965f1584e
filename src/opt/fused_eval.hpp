// Line-search restriction over a separable objective, evaluated with no
// matrix traversal per probe.
//
// A 1-D search from p along d probes phi(t) = f(p + t d). For the
// separable objective f(p) = sum_k M_k(a_k + (Rp)_k) the restriction is
//   phi'(t)  = sum_k M'_k (x0_k + t rd_k) rd_k,
//   phi''(t) = sum_k M''_k(x0_k + t rd_k) rd_k^2,
// with x0 = a + Rp and rd = R d. Both R-products are computed ONCE in
// reset(); every probe after that is a single batched pass over the
// terms with rd_k != 0. Terms with rd_k == 0 sit at the same inner
// product for the whole search — their utility evaluations are dropped
// at reset (the sums are unchanged because their contribution is exactly
// zero), which is the probe-to-probe evaluation cache: on a typical
// iteration the search direction touches a fraction of the OD pairs, and
// only those terms are ever re-evaluated.
//
// The active terms are gathered into compact arrays (inner products,
// rd, structure-of-arrays coefficients), so the probe kernels are the
// same branch-free batched loops the fused evaluation uses — including
// the leveled SIMD dispatch. The gather PARTITIONS the compact slots by
// utility family (batch-kernel pointer, first-appearance order) and, for
// piecewise families, by the pivot regime the term starts in at x0 —
// vector kernels then see lane-uniform blocks and their uniform-regime
// fast paths (skip the division leg, or the quadratic leg) hit on nearly
// every vector. Probes can migrate terms across the pivot as t moves, so
// the partition is a strong hint, not an invariant; the kernels re-check
// per vector and blend on mixed vectors, which keeps them bit-exact.
//
// The probe sums phi' and phi'' (and phi''(0) from the caller's M'') run
// in the fixed lane order of linalg/lane_sum.hpp on the calling thread:
// eight independent add chains instead of one serial chain, the same
// bits with or without a pool and at every SIMD level.
//
// Consecutive searches of one solve usually share that partition: while
// the active set holds, the same terms have rd_k != 0 and few cross a
// pivot. reset() therefore records each term's class (inactive, below
// or above its pivot) and, when no class changed since the previous
// reset on the same objective, keeps the slot order, the runs and the
// compact coefficient table, re-gathering only x0 and rd. The slot order
// is a pure function of the classes, so the reuse is bit-identical to a
// rebuild. The objective is identified by address, which a later problem
// can share; invalidate() drops the partition (maximize() calls it at
// every entry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "opt/line_search.hpp"
#include "opt/objective.hpp"
#include "util/page_alloc.hpp"

namespace netmon::opt {

class SeparableRestriction final : public Phi {
 public:
  SeparableRestriction() = default;

  /// Prepares a search from inner products `x0` (= a + Rp, term_count-
  /// sized) along direction `d` (dimension-sized): computes rd = R d —
  /// the only matrix traversal of the whole line search — and gathers
  /// the terms with rd_k != 0. When `m2_at_x0` (per-term M'' at x0, e.g.
  /// from the solver's fused evaluation at p) is non-empty, phi''(0) is
  /// precomputed from it so the Newton first step costs no extra kernel
  /// pass. All buffers are grow-only: repeated resets on problems of the
  /// same size allocate nothing. When every term keeps its class from
  /// the previous reset on `f`, the partition is reused (see above).
  ///
  /// A non-null `pool` shards the rd spmv and each probe's elementwise
  /// work (xt fill + kernel sub-ranges) across it; the probe sums run in
  /// lane order on the calling thread, so every Derivs is bit-identical
  /// to the serial path. The pool is borrowed until the next reset.
  void reset(const SeparableConcaveObjective& f, std::span<const double> x0,
             std::span<const double> d,
             std::span<const double> m2_at_x0 = {},
             runtime::ThreadPool* pool = nullptr);

  /// Forgets the partition, so the next reset rebuilds it. Required
  /// before resetting on a different objective that may live at the
  /// address of the previous one.
  void invalidate() { f_ = nullptr; }

  /// One batched pass over the active terms; no matrix traversal.
  Derivs derivs(double t) override;

  double second_at_zero() override;

  /// rd = R d, dense over all terms — the solver reuses it for the
  /// incremental inner-product update x += t * rd after the step.
  std::span<const double> rd() const { return {rd_.data(), rd_.size()}; }

  /// Number of terms participating in the probes (rd_k != 0).
  std::size_t active_terms() const { return x0c_.size(); }

  /// Whether the last reset kept the previous partition.
  bool reused_partition() const { return reused_; }

 private:
  /// A maximal group of consecutive compact slots sharing a batch kernel
  /// (nullptr = per-term virtual dispatch via idx_).
  struct CompactRun {
    const Concave1d::BatchKernel* kernel = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Term classes of the partition; kInactive marks rd_k == 0.
  enum : std::uint8_t { kInactive = 0, kBelowPivot = 1, kAbovePivot = 2 };

  /// Rebuilds idx_/runs_/soa_ from the classes in cls_.
  void partition(const SeparableConcaveObjective& f);

  /// Fills xt_/m1_/m2_ for compact slots [begin, end) at probe point t.
  /// The dispatch level and fast-math flag are hoisted by the caller so
  /// every shard of one probe dispatches identically.
  void eval_range(std::size_t begin, std::size_t end, double t,
                  SimdLevel level, bool fastmath);

  const SeparableConcaveObjective* f_ = nullptr;
  runtime::ThreadPool* pool_ = nullptr;  // borrowed; null = serial probes
  // The probe arrays are page-backed: every probe streams all of them,
  // and dedicated mappings keep large searches fast (util/page_alloc.hpp).
  util::PageVector<double> rd_;   // dense R d (term_count)
  util::PageVector<double> x0c_;  // compact x0 over active terms
  util::PageVector<double> rdc_;  // compact rd over active terms
  util::PageVector<double> soa_;  // compact SoA coeffs (stride = active)
  util::PageVector<double> xt_;   // probe inner products x0c + t rdc
  util::PageVector<double> m1_;   // probe M'
  util::PageVector<double> m2_;   // probe M''
  std::vector<std::size_t> idx_;  // original term per compact slot
  std::vector<std::uint8_t> cls_;  // class per term at the last reset
  std::vector<CompactRun> runs_;
  // Distinct batch kernels in first-appearance order — the gather's
  // family partition; grow-only scratch reused across resets.
  std::vector<const Concave1d::BatchKernel*> groups_;
  double second0_ = 0.0;
  bool have_second0_ = false;
  bool reused_ = false;
};

}  // namespace netmon::opt
