#include "opt/fused_eval.hpp"

#include <algorithm>
#include <array>

#include "core/utility_kernels.hpp"
#include "linalg/lane_sum.hpp"
#include "linalg/parallel_kernels.hpp"
#include "runtime/parallel.hpp"
#include "util/error.hpp"

namespace netmon::opt {

namespace {
/// Probes with fewer active slots than this stay serial even when a pool
/// is attached — at that size the fork/join overhead beats the work.
constexpr std::size_t kParallelMinSlots = 2048;

/// Probe-point fill xt[i] = fma(t, rd[i], x0[i]) at the requested
/// dispatch level. All variants are element-for-element bit-identical
/// (std::fma and vfmadd are both correctly rounded), so the level only
/// changes throughput.
using FillFn = void (*)(double*, const double*, const double*, double,
                        std::size_t);
FillFn select_fill(SimdLevel level) {
#ifdef NETMON_HAVE_AVX512
  if (level >= SimdLevel::kAvx512) return core::kernels::fill_affine_avx512;
#endif
#ifdef NETMON_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) return core::kernels::fill_affine_avx2;
#endif
  (void)level;
  return core::kernels::fill_affine_scalar;
}
}  // namespace

void SeparableRestriction::reset(const SeparableConcaveObjective& f,
                                 std::span<const double> x0,
                                 std::span<const double> d,
                                 std::span<const double> m2_at_x0,
                                 runtime::ThreadPool* pool) {
  const std::size_t n = f.term_count();
  NETMON_REQUIRE(x0.size() == n, "restriction inner-product size mismatch");
  NETMON_REQUIRE(d.size() == f.dimension(),
                 "restriction direction size mismatch");
  bool reuse = f_ == &f && cls_.size() == n;
  f_ = &f;
  pool_ = pool;

  rd_.resize(n);
  if (pool != nullptr) {
    linalg::spmv_parallel(f.matrix_, d, {rd_.data(), n}, *pool);
  } else {
    linalg::spmv(f.matrix_, d, {rd_.data(), n});  // offsets drop in d/dt
  }

  // Classify every term: inactive (rd_k == 0) or active, and for
  // piecewise families the pivot regime it starts in at x0 (same quiet
  // compare the kernels use). Single-regime families count as below.
  cls_.resize(n);
  for (const auto& run : f.runs_) {
    const std::size_t pivot = run.kernel != nullptr
                                  ? run.kernel->pivot_param
                                  : Concave1d::BatchKernel::kNoPivot;
    const double* pivots = pivot == Concave1d::BatchKernel::kNoPivot
                                ? nullptr
                                : f.soa_.data() + pivot * n;
    for (std::size_t k = run.begin; k < run.end; ++k) {
      std::uint8_t c = kInactive;
      if (rd_[k] != 0.0) {
        c = pivots == nullptr || x0[k] < pivots[k] ? kBelowPivot
                                                    : kAbovePivot;
      }
      reuse = reuse && c == cls_[k];
      cls_[k] = c;
    }
  }
  if (!reuse) partition(f);
  reused_ = reuse;

  // Gather the search's x0 and rd into the (possibly reused) slots.
  const std::size_t m = idx_.size();
  x0c_.resize(m);
  rdc_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t k = idx_[i];
    x0c_[i] = x0[k];
    rdc_[i] = rd_[k];
  }
  xt_.resize(m);
  m1_.resize(m);
  m2_.resize(m);

  // phi''(0) from the caller's per-term M'' at x0, when provided: the
  // inactive terms contribute exactly zero (rd_k == 0), so the compact
  // sum is the full sum. Same terms in the same lane order as derivs(),
  // so it equals derivs(0).second bit for bit.
  have_second0_ = !m2_at_x0.empty();
  if (have_second0_) {
    NETMON_REQUIRE(m2_at_x0.size() == n, "restriction m2 size mismatch");
    const double* __restrict rdc = rdc_.data();
    const std::size_t* __restrict idx = idx_.data();
    second0_ = linalg::lane_sum(m, [&](std::size_t i) {
      const double r = rdc[i];
      return m2_at_x0[idx[i]] * r * r;
    });
  }
}

void SeparableRestriction::partition(const SeparableConcaveObjective& f) {
  // Compact slots of the active terms, partitioned for the vector
  // kernels: by batch kernel first (first-appearance order; nullptr =
  // per-term virtual dispatch is its own group), then — for piecewise
  // families — below-pivot terms before above-pivot ones. Lane-uniform
  // blocks let the kernels' uniform-regime fast paths (skip the division
  // leg / the quadratic leg) hit on nearly every vector; mid-search
  // regime migration is handled by their per-vector re-check, so the
  // partition never affects results. The family pass count is tiny (a
  // handful of kernels x two phases) and all buffers are grow-only, so
  // repeated rebuilds allocate nothing at steady state.
  idx_.clear();
  runs_.clear();
  groups_.clear();
  for (const auto& run : f.runs_) {
    if (std::find(groups_.begin(), groups_.end(), run.kernel) ==
        groups_.end()) {
      groups_.push_back(run.kernel);
    }
  }
  for (const Concave1d::BatchKernel* kernel : groups_) {
    const bool piecewise =
        kernel != nullptr &&
        kernel->pivot_param != Concave1d::BatchKernel::kNoPivot;
    const std::uint8_t last = piecewise ? kAbovePivot : kBelowPivot;
    for (std::uint8_t want = kBelowPivot; want <= last; ++want) {
      for (const auto& run : f.runs_) {
        if (run.kernel != kernel) continue;
        for (std::size_t k = run.begin; k < run.end; ++k) {
          if (cls_[k] != want) continue;
          const std::size_t slot = idx_.size();
          if (!runs_.empty() && runs_.back().kernel == kernel &&
              runs_.back().end == slot) {
            runs_.back().end = slot + 1;
          } else {
            runs_.push_back({kernel, slot, slot + 1});
          }
          idx_.push_back(k);
        }
      }
    }
  }

  // Compact SoA coefficient table: parameter j of slot i at soa_[j*m+i],
  // gathered from the objective's full-width table.
  const std::size_t n = f.term_count();
  const std::size_t m = idx_.size();
  soa_.resize(Concave1d::kBatchParamCount * m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t k = idx_[i];
    for (std::size_t j = 0; j < Concave1d::kBatchParamCount; ++j)
      soa_[j * m + i] = f.soa_[j * n + k];
  }
}

void SeparableRestriction::eval_range(std::size_t begin, std::size_t end,
                                      double t, SimdLevel level,
                                      bool fastmath) {
  const std::size_t m = x0c_.size();
  double* __restrict xt = xt_.data();
  select_fill(level)(xt + begin, x0c_.data() + begin, rdc_.data() + begin, t,
                     end - begin);

  auto it = std::partition_point(
      runs_.begin(), runs_.end(),
      [begin](const CompactRun& run) { return run.end <= begin; });
  for (; it != runs_.end() && it->begin < end; ++it) {
    const std::size_t lo = std::max(it->begin, begin);
    const std::size_t hi = std::min(it->end, end);
    if (it->kernel != nullptr && it->kernel->deriv2 != nullptr) {
      const Concave1d::BatchKernel::Deriv2Fn fn =
          it->kernel->select_deriv2(level, fastmath);
      fn(soa_.data() + lo, m, xt + lo, m1_.data() + lo, m2_.data() + lo,
         hi - lo);
      continue;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const Concave1d& u = *f_->utilities_[idx_[i]];
      m1_[i] = u.deriv(xt[i]);
      m2_[i] = u.second(xt[i]);
    }
  }
}

Phi::Derivs SeparableRestriction::derivs(double t) {
  NETMON_REQUIRE(f_ != nullptr, "restriction not reset");
  const std::size_t m = x0c_.size();
  const SimdLevel level = simd_dispatch_level();
  const bool fastmath = simd_fastmath_enabled();
  if (pool_ != nullptr && m >= kParallelMinSlots) {
    // Elementwise probe work sharded; the sums below run on the calling
    // thread in lane order, so the Derivs are bit-identical to the serial
    // path.
    const auto chunks = runtime::make_chunks_for_width(
        m, runtime::ChunkOptions{.grain = 512}, pool_->size());
    runtime::TaskGroup group(*pool_);
    for (const auto& [b, e] : chunks) {
      group.run([this, b = b, e = e, t, level, fastmath] {
        eval_range(b, e, t, level, fastmath);
      });
    }
    group.wait();
  } else {
    eval_range(0, m, t, level, fastmath);
  }

  const double* __restrict rdc = rdc_.data();
  const double* __restrict m1 = m1_.data();
  const double* __restrict m2 = m2_.data();
  const auto [first, second] = linalg::lane_sums<2>(m, [&](std::size_t i) {
    const double r = rdc[i];
    return std::array<double, 2>{m1[i] * r, m2[i] * r * r};
  });
  return {first, second};
}

double SeparableRestriction::second_at_zero() {
  if (have_second0_) return second0_;
  return derivs(0.0).second;
}

}  // namespace netmon::opt
