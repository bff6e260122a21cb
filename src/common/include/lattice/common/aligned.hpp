// Minimal over-aligned allocator for std::vector storage.
//
// The bit-plane lattice wants its payload rows on cacheline (and
// vector-register) boundaries: the SIMD spans use unaligned loads, so
// alignment is not a correctness requirement, but aligned rows keep
// every 256/512-bit access inside one cacheline and make the layout
// deterministic for the cost model. std::vector<T> alone only
// guarantees alignof(T), hence this allocator.
//
// It over-allocates by Align and aligns inside the block rather than
// calling the aligned ::operator new. glibc serves an aligned request
// by asking its free lists for Align bytes more than the block it
// keeps, so a freed buffer can never satisfy the next aligned request
// of the same size. The engine allocates same-size plane buffers on
// every pass; through aligned new they fragment the heap until it has
// grown by several buffers, and peak RSS then depends on where earlier
// small allocations happened to fall. A plain request of the same size
// reuses the freed block.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>

namespace lattice::common {

template <typename T, std::size_t Align>
class AlignedAllocator {
  static_assert(Align >= alignof(T), "Align must not weaken alignof(T)");
  static_assert((Align & (Align - 1)) == 0, "Align must be a power of two");
  static_assert(Align >= alignof(std::max_align_t),
                "the block's own pointer is stored just below the aligned "
                "start, which needs at least one malloc alignment of gap");

 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - Align) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    void* raw = ::operator new(n * sizeof(T) + Align);
    // The next Align boundary strictly above raw: at least one malloc
    // alignment (>= sizeof(void*)) above it, at most Align.
    const auto start =
        (reinterpret_cast<std::uintptr_t>(raw) + Align) & ~(Align - 1);
    reinterpret_cast<void**>(start)[-1] = raw;
    return reinterpret_cast<T*>(start);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

}  // namespace lattice::common
