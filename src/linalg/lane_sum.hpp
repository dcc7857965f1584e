// Fixed-order floating-point sums for the solver's O(n) reductions.
//
// A serial `sum += x[i]` is one dependent chain of adds: it runs at the
// add latency, and over 10^4-10^5 terms it costs more than the kernels
// that produced the terms. lane_sums spreads each sum over kLanes
// independent accumulators — element i goes to lane i % kLanes — and
// combines the lanes in one fixed tree:
//   ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
// The order is a pure function of n. It depends on no thread pool, no
// SIMD dispatch level and no vectorization choice of the compiler (the
// lanes are independent, so packing them into vector registers performs
// the same adds), so every caller of the same sum gets the same bits on
// every path. It is not the left-to-right order: results differ from a
// serial sum in the last bits.
#pragma once

#include <array>
#include <cstddef>

namespace netmon::linalg {

/// Accumulators per sum.
inline constexpr std::size_t kLanes = 8;

/// K lane-order sums in one pass: `term(i)` returns the K summands of
/// element i as a std::array<double, K>; the result holds the K sums.
template <std::size_t K, typename Term>
std::array<double, K> lane_sums(std::size_t n, Term&& term) {
  double acc[K][kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::array<double, K> v = term(i + l);
      for (std::size_t k = 0; k < K; ++k) acc[k][l] += v[k];
    }
  }
  for (std::size_t l = 0; i + l < n; ++l) {
    const std::array<double, K> v = term(i + l);
    for (std::size_t k = 0; k < K; ++k) acc[k][l] += v[k];
  }
  std::array<double, K> out;
  for (std::size_t k = 0; k < K; ++k) {
    const double* a = acc[k];
    out[k] = ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
  }
  return out;
}

/// One lane-order sum: `term(i)` returns the summand of element i.
template <typename Term>
double lane_sum(std::size_t n, Term&& term) {
  return lane_sums<1>(n, [&term](std::size_t i) {
    return std::array<double, 1>{term(i)};
  })[0];
}

}  // namespace netmon::linalg
