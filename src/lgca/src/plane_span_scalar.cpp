// Scalar (64-bit word) instantiation of the span kernels in
// plane_span.hpp — always compiled, always supported — plus the
// portable popcount for the fault detectors' ledgers.

#include <bit>
#include <cstdint>

#include "plane_span.hpp"

namespace lattice::lgca::detail {

namespace {

std::uint64_t popcount_words_scalar(const std::uint64_t* words,
                                    std::int64_t n) noexcept {
  std::uint64_t total = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    total += static_cast<std::uint64_t>(std::popcount(words[k]));
  }
  return total;
}

}  // namespace

const PlaneSpanOps& plane_span_ops_scalar() noexcept {
  using Word = std::uint64_t;
  static const PlaneSpanOps ops{"scalar64", 64, &hpp_span<Word>,
                                &fhp_span<Word, false>, &fhp_span<Word, true>,
                                &popcount_words_scalar};
  return ops;
}

}  // namespace lattice::lgca::detail
