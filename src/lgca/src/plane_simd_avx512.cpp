// AVX-512F instantiation of the span kernels in plane_span.hpp: a word
// of 8 lattice words (512 sites) per op. Compiled with -mavx512f (see
// the LATTICE_SIMD logic in src/lgca/CMakeLists.txt) and only ever
// *called* behind the runtime CPU check in plane_simd.cpp. The word's
// operators lower to foundation ops only — 64-bit logic, shifts,
// unaligned load/store — so avx512f alone is the dispatch requirement;
// the compiler is free to fuse the and/or/not chains into vpternlogq.

#include <cstdint>

#include "plane_span.hpp"
#include "plane_span_x86.inc"

namespace lattice::lgca::detail {

const PlaneSpanOps& plane_span_ops_avx512() noexcept {
  typedef std::uint64_t Word __attribute__((vector_size(64)));
  static const PlaneSpanOps ops{"avx512", 512, &hpp_span<Word>,
                                &fhp_span<Word, false>, &fhp_span<Word, true>,
                                &vec_popcount_words};
  return ops;
}

}  // namespace lattice::lgca::detail
