// AVX2 instantiation of the span kernels in plane_span.hpp: a word of
// 4 lattice words (256 sites) per op. This TU is compiled with -mavx2
// (see the LATTICE_SIMD logic in src/lgca/CMakeLists.txt) and must only
// be *called* behind the runtime CPU check in plane_simd.cpp.

#include <cstdint>

#include "plane_span.hpp"
#include "plane_span_x86.inc"

namespace lattice::lgca::detail {

const PlaneSpanOps& plane_span_ops_avx2() noexcept {
  typedef std::uint64_t Word __attribute__((vector_size(32)));
  static const PlaneSpanOps ops{"avx2", 256, &hpp_span<Word>,
                                &fhp_span<Word, false>, &fhp_span<Word, true>,
                                &vec_popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
