#include "util/page_alloc.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <span>
#include <utility>

namespace netmon::util {
namespace {

TEST(PageAllocTest, LargeVectorRoundTripsValues) {
  // Well past kPageAllocThresholdBytes -> dedicated-mapping path.
  const std::size_t n = 1 << 16;
  PageVector<double> v(n);
  std::iota(v.begin(), v.end(), 0.0);
  for (std::size_t i = 0; i < n; i += 4097) {
    EXPECT_EQ(v[i], static_cast<double>(i));
  }
}

TEST(PageAllocTest, SmallVectorRoundTripsValues) {
  // Below the threshold -> operator new path.
  PageVector<double> v(16, 2.5);
  for (const double x : v) EXPECT_EQ(x, 2.5);
}

TEST(PageAllocTest, GrowthAcrossThresholdPreservesContents) {
  PageVector<double> v;
  for (std::size_t i = 0; i < 10000; ++i) v.push_back(static_cast<double>(i));
  for (std::size_t i = 0; i < v.size(); i += 997) {
    EXPECT_EQ(v[i], static_cast<double>(i));
  }
}

TEST(PageAllocTest, MoveAndSwapTransferStorage) {
  PageVector<double> a(5000, 1.0);
  const double* data = a.data();
  PageVector<double> b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b[4999], 1.0);

  PageVector<double> c(10, 3.0);
  std::swap(b, c);
  EXPECT_EQ(c.data(), data);
  EXPECT_EQ(b.size(), 10u);
}

TEST(PageAllocTest, SpanViewsWork) {
  PageVector<double> v(4096, 7.0);
  const std::span<const double> s{v.data(), v.size()};
  EXPECT_EQ(s.size(), 4096u);
  EXPECT_EQ(s[4095], 7.0);
}

TEST(PageAllocTest, LazyArrayHoldsWhatIsWritten) {
  // Far past the threshold (a dedicated mapping), touch a little; and
  // below it (operator new).
  LazyPageArray<double> big(1 << 18);
  EXPECT_EQ(big.size(), std::size_t{1} << 18);
  for (std::size_t i = 0; i < 3000; ++i) big[i] = static_cast<double>(i);
  EXPECT_EQ(big[2999], 2999.0);
  EXPECT_EQ(big.data() + 2999, &big[2999]);
  LazyPageArray<float> small(8);
  small[7] = 1.5f;
  EXPECT_EQ(small[7], 1.5f);
  EXPECT_EQ(LazyPageArray<int>(0).data(), nullptr);
}

TEST(PageAllocTest, AllocatorsCompareEqual) {
  EXPECT_TRUE((PageAllocator<double>{} == PageAllocator<double>{}));
}

}  // namespace
}  // namespace netmon::util
