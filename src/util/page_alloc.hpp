// Dedicated-mapping allocator for hot kernel buffers.
//
// The batched utility kernels stream several term-sized arrays per pass
// (SoA coefficients, inner products, M / M' / M''). Where those arrays
// land matters more than how the kernel is written: on the reference
// hardware a 4096-term fused pass runs ~2.6x slower when its buffers
// come from the recycled general-purpose heap than when each buffer has
// its own fresh private mapping (measured 2.0 vs 0.75 ns/term for the
// AVX-512 kernel; the scalar path, bound by the divide unit rather than
// the memory system, is insensitive). PageAllocator therefore backs any
// allocation of at least kPageAllocThresholdBytes with its own
// mmap(MAP_PRIVATE | MAP_ANONYMOUS) region (advised MADV_HUGEPAGE where
// available); smaller allocations — which stay L1-resident anyway — use
// plain operator new so tiny problems don't burn whole pages.
//
// The split is decided by the request size alone, so allocate and
// deallocate agree without per-pointer bookkeeping. The allocator is
// stateless: all instances are interchangeable.
//
// LazyPageArray drops the huge-page advice and never initialises its
// elements. It is for scratch sized to a loose upper bound that is
// rarely filled: its untouched pages are never resident and munmap hands
// the touched ones back to the OS, where a huge page would make 2 MB
// resident on the first touched byte.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define NETMON_PAGE_ALLOC_HAVE_MMAP 1
#endif

namespace netmon::util {

inline constexpr std::size_t kPageAllocThresholdBytes = 16 * 1024;

template <class T, bool kHugePages = true>
class PageAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  template <class U>
  struct rebind {
    using other = PageAllocator<U, kHugePages>;
  };

  PageAllocator() noexcept = default;
  template <class U>
  PageAllocator(const PageAllocator<U, kHugePages>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
#ifdef NETMON_PAGE_ALLOC_HAVE_MMAP
    if (bytes >= kPageAllocThresholdBytes) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc{};
#ifdef MADV_HUGEPAGE
      if constexpr (kHugePages) ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
#ifdef NETMON_PAGE_ALLOC_HAVE_MMAP
    if (bytes >= kPageAllocThresholdBytes) {
      ::munmap(p, bytes);
      return;
    }
#endif
    ::operator delete(p);
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

/// std::vector whose backing store comes from PageAllocator. Drop-in for
/// the term-sized arrays the batch kernels stream over.
template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Fixed-size, uninitialised storage from PageAllocator without the
/// huge-page advice (see the header comment). Elements must be written
/// before they are read; nothing zero-fills them, so only the pages a
/// caller touches become resident.
template <class T>
class LazyPageArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  explicit LazyPageArray(std::size_t n)
      : data_(n != 0 ? PageAllocator<T, false>{}.allocate(n) : nullptr),
        size_(n) {}
  LazyPageArray(const LazyPageArray&) = delete;
  LazyPageArray& operator=(const LazyPageArray&) = delete;
  ~LazyPageArray() {
    if (data_ != nullptr) PageAllocator<T, false>{}.deallocate(data_, size_);
  }

  T* data() noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }

 private:
  T* data_;
  std::size_t size_;
};

}  // namespace netmon::util
