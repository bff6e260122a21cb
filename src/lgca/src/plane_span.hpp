// The bit-plane collision algebra, written once over a word type W.
//
// Every span translation unit includes this header with its own word:
// plane_span_scalar.cpp instantiates it at W = std::uint64_t (64 sites
// per op), plane_simd_avx2.cpp / plane_simd_avx512.cpp at GCC/Clang
// vector-extension words of 4 / 8 uint64_t lanes (256 / 512 sites per
// op), compiled with -mavx2 / -mavx512f. The algebra below uses only
// the native `& | ~ >> <<` operators, which mean the same thing lane by
// lane on a scalar word and on a vector word, so all three widths
// compute the same function bit-for-bit by construction; the exhaustive
// cross-ISA tests in test_bitplane.cpp check it.
//
// A word type plugs in with nothing but this include (see
// docs/ARCHITECTURE.md, "How to add a SIMD kernel variant"): the loads
// and stores, the funnel-shift gather, the span loop and the per-event
// chirality helper are generic over W too.
//
// Each per-ISA ops getter at the top is defined by its span TU, which
// is compiled only when the LATTICE_SIMD option allows it (see
// src/lgca/CMakeLists.txt); plane_simd.cpp turns that plus runtime CPU
// detection into the public dispatch table.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/lgca/plane_simd.hpp"

namespace lattice::lgca::detail {

const PlaneSpanOps& plane_span_ops_scalar() noexcept;

// Defined in plane_simd_avx2.cpp / plane_simd_avx512.cpp when those
// TUs are in the build; resolved through the LATTICE_HAVE_*_KERNELS
// macros in plane_simd.cpp.
const PlaneSpanOps& plane_span_ops_avx2() noexcept;
const PlaneSpanOps& plane_span_ops_avx512() noexcept;

// Internal linkage on purpose: each span TU compiles its own copy with
// its own -m flags, so the linker can never hand one TU another TU's
// instruction-set variant of a shared helper (the uint64_t remainder
// code, say, is instantiated by all three).
namespace {

/// 64-bit lattice words per W.
template <class W>
inline constexpr std::int64_t kLanes =
    static_cast<std::int64_t>(sizeof(W) / sizeof(std::uint64_t));

/// Typed word loads and stores at any 8-byte-aligned address. The
/// aligned(8) typedef makes the access an unaligned vector move (and
/// keeps UBSan's alignment check at 8 bytes) while keeping it a typed
/// access to uint64_t storage: GCC gives a vector of uint64_t the alias
/// set of its element, so the compiler still knows a plane store cannot
/// alias the row-pointer arrays. A memcpy is a character access that
/// may alias them, which forces a reload of every row pointer after
/// every store.
template <class W>
inline W load(const std::uint64_t* p) noexcept {
  typedef W Unaligned __attribute__((aligned(8)));
  return *reinterpret_cast<const Unaligned*>(p);
}

template <class W>
inline void store(std::uint64_t* p, W v) noexcept {
  typedef W Unaligned __attribute__((aligned(8)));
  *reinterpret_cast<Unaligned*>(p) = v;
}

/// Gathered words for a row shifted by dx ∈ {-1, 0, +1}: bit j of the
/// result is bit j+dx of the (halo-padded) source row. The cross-word
/// funnel borrows come from a second load at k±1; the row's one-word
/// guard halo keeps that in bounds at both ends, and the span loop
/// keeps k + kLanes ≤ last_word for vector words, so the +1 load never
/// passes the right guard. `dx` is loop-invariant so the branches
/// predict.
template <class W>
inline W shift_gather(const std::uint64_t* row, std::int64_t k,
                      int dx) noexcept {
  if (dx == 0) return load<W>(row + k);
  if (dx > 0) return (load<W>(row + k) >> 1) | (load<W>(row + k + 1) << 63);
  return (load<W>(row + k) << 1) | (load<W>(row + k - 1) >> 63);
}

/// Chirality variants of the set bits of `pairs` (one lattice word at
/// word index k): bit j == chirality(64k + j, y, t) where a head-on
/// pair fired, 0 elsewhere. Chirality is consumed only at pair sites,
/// and pairs are rare (an *exact* two-particle configuration), so the
/// hash is paid per event rather than per site — the kernel's only
/// per-site work.
inline std::uint64_t pair_chirality(std::uint64_t pairs, std::int64_t k,
                                    std::int64_t y, std::int64_t t) noexcept {
  std::uint64_t c = 0;
  for (std::uint64_t bits = pairs; bits != 0; bits &= bits - 1) {
    const int j = std::countr_zero(bits);
    c |= static_cast<std::uint64_t>(GasModel::chirality(
             k * PlaneLattice::kWordBits + j, y, t))
         << j;
  }
  return c;
}

/// pair_chirality over every 64-bit lane of W (words k .. k+kLanes-1).
/// The lanes leave the vector through one store to an aligned array
/// rather than per-lane subscripts, each of which is a lane extract.
template <class W>
inline W pair_chirality(W pairs, std::int64_t k, std::int64_t y,
                        std::int64_t t) noexcept {
  alignas(64) std::uint64_t lanes[kLanes<W>];
  store(lanes, pairs);
  for (std::int64_t l = 0; l < kLanes<W>; ++l) {
    lanes[l] = pair_chirality(lanes[l], k + l, y, t);
  }
  return load<W>(lanes);
}

/// Runs block(mask, k) over words [k0, k1) of a row whose masked final
/// payload word is `last_word`. Whole W blocks run strictly below the
/// last word — so tail masking and odd widths never take the vector
/// path — then one *overlapping* final block re-runs the last kLanes
/// words ending at that limit, and uint64_t words (mask = tail_mask on
/// the last word) finish the rest. Recomputing overlapped words is safe
/// because output rows never alias source rows (the run is
/// double-buffered — the same precondition the gathered k±1 reads
/// already rely on) and each word is a pure function of the source
/// rows, so the second store writes the same value. The vector block
/// has one call site, so the compiler inlines one copy of it.
template <class W, class Block>
inline void span_loop(std::int64_t k0, std::int64_t k1,
                      std::int64_t last_word, std::uint64_t tail_mask,
                      const Block& block) {
  std::int64_t k = k0;
  if constexpr (kLanes<W> > 1) {
    const std::int64_t limit = std::min(k1, last_word);
    if (limit - k0 >= kLanes<W>) {
      for (std::int64_t kb = k0;; kb += kLanes<W>) {
        kb = std::min(kb, limit - kLanes<W>);
        block(~W{}, kb);
        if (kb + kLanes<W> == limit) break;
      }
      k = limit;
    }
  }
  for (; k < k1; ++k) {
    block(k == last_word ? tail_mask : ~std::uint64_t{0}, k);
  }
}

/// HPP collision on one W of words at k. The only rule is the head-on
/// exchange {E,W} ↔ {N,S} on exactly-pair states — chirality-free (the
/// model's two variant tables are identical).
///
/// Every span writes only its gas's *dynamic* planes (the moving
/// channels, plus the rest plane when the gas has rest particles). The
/// static planes — HPP's unused channels 4/5, an absent rest plane,
/// and the obstacle mask — are constants of the run: PlaneKernel::
/// prime_static_planes() establishes them in both buffers once, which
/// for HPP halves the store traffic of the whole update (4 computed
/// planes instead of 8 written per word, per generation).
template <class W>
inline void hpp_block(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* obst, std::uint64_t* const out[8],
                      std::int64_t k, W m) noexcept {
  const W a0 = shift_gather<W>(src[0], k, dx[0]);
  const W a1 = shift_gather<W>(src[1], k, dx[1]);
  const W a2 = shift_gather<W>(src[2], k, dx[2]);
  const W a3 = shift_gather<W>(src[3], k, dx[3]);
  const W o = load<W>(obst + k);
  const W ew = a0 & a2 & ~a1 & ~a3;  // exactly {E, W}
  const W ns = a1 & a3 & ~a0 & ~a2;  // exactly {N, S}
  const W b0 = (a0 & ~ew) | ns;
  const W b1 = (a1 & ~ns) | ew;
  const W b2 = (a2 & ~ew) | ns;
  const W b3 = (a3 & ~ns) | ew;
  // Obstacle sites bounce every gathered particle straight back.
  store(out[0] + k, ((b0 & ~o) | (a2 & o)) & m);
  store(out[1] + k, ((b1 & ~o) | (a3 & o)) & m);
  store(out[2] + k, ((b2 & ~o) | (a0 & o)) & m);
  store(out[3] + k, ((b3 & ~o) | (a1 & o)) & m);
}

/// FHP collision on one W of words at k; HasRest distinguishes FHP-II
/// from FHP-I (whose rest plane is never gathered, so it reads as zero
/// and the rest rules vanish). Every FHP rule fires on an *exact*
/// moving configuration, so the detectors below are mutually exclusive
/// and the update is "clear the channels at event sites, OR in the
/// gains":
///
///   p_i   exactly {i, i+3}          → {i±1, i+3±1}, sign from chirality
///   tr0   exactly {0,2,4} (no rest) → {1,3,5}   (chirality-free)
///   tr1   exactly {1,3,5} (no rest) → {0,2,4}
///   ann_j rest + exactly {j}        → {j-1, j+1}, rest cleared
///   cre_j exactly {j, j+2}, no rest → {j+1}, rest set
template <bool HasRest, class W>
inline void fhp_block(const std::uint64_t* const src[6], const int dx[6],
                      const std::uint64_t* rest, const std::uint64_t* obst,
                      std::uint64_t* const out[8], std::int64_t k,
                      std::int64_t y, std::int64_t t, W m) noexcept {
  const W a0 = shift_gather<W>(src[0], k, dx[0]);
  const W a1 = shift_gather<W>(src[1], k, dx[1]);
  const W a2 = shift_gather<W>(src[2], k, dx[2]);
  const W a3 = shift_gather<W>(src[3], k, dx[3]);
  const W a4 = shift_gather<W>(src[4], k, dx[4]);
  const W a5 = shift_gather<W>(src[5], k, dx[5]);
  const W r = HasRest ? load<W>(rest + k) : W{};
  const W o = load<W>(obst + k);
  const W n0 = ~a0, n1 = ~a1, n2 = ~a2;
  const W n3 = ~a3, n4 = ~a4, n5 = ~a5;
  // Every detector is an AND over all six channels; grouping it from
  // these shared empty-pair products keeps the trees shallow and short.
  const W n01 = n0 & n1, n12 = n1 & n2, n23 = n2 & n3;
  const W n34 = n3 & n4, n45 = n4 & n5;

  // Head-on pairs (rest particles spectate).
  const W p0 = (a0 & a3) & (n12 & n45);
  const W p1 = (a1 & a4) & ((n0 & n2) & (n3 & n5));
  const W p2 = (a2 & a5) & (n01 & n34);
  // Symmetric triples; a rest particle blocks them in FHP-II.
  const W rok = HasRest ? ~r : ~W{};
  const W tr0 = ((a0 & a2) & (a4 & n1)) & ((n3 & n5) & rok);
  const W tr1 = ((a1 & a3) & (a5 & n0)) & ((n2 & n4) & rok);

  W ann0{}, ann1{}, ann2{}, ann3{}, ann4{}, ann5{};
  W cre0{}, cre1{}, cre2{}, cre3{}, cre4{}, cre5{};
  W ann_any{}, cre_any{};
  if constexpr (HasRest) {
    ann0 = (r & a0) & ((n1 & n23) & n45);
    ann1 = (r & a1) & ((n0 & n23) & n45);
    ann2 = (r & a2) & ((n01 & n34) & n5);
    ann3 = (r & a3) & ((n01 & n2) & n45);
    ann4 = (r & a4) & ((n01 & n23) & n5);
    ann5 = (r & a5) & ((n01 & n23) & n4);
    ann_any = (ann0 | ann1) | (ann2 | ann3) | (ann4 | ann5);
    const W nr = ~r;
    cre0 = nr & ((a0 & a2) & ((n1 & n34) & n5));
    cre1 = nr & ((a1 & a3) & ((n0 & n2) & n45));
    cre2 = nr & ((a2 & a4) & ((n01 & n3) & n5));
    cre3 = nr & ((a3 & a5) & ((n01 & n2) & n4));
    cre4 = nr & ((a4 & a0) & ((n12 & n3) & n5));
    cre5 = nr & ((a5 & a1) & ((n0 & n23) & n4));
    cre_any = (cre0 | cre1) | (cre2 | cre3) | (cre4 | cre5);
  }

  const W ev = p0 | p1 | p2 | tr0 | tr1 | ann_any | cre_any;
  const W C = pair_chirality(p0 | p1 | p2, k, y, t);
  // Variant 0 rotates a pair +60° (p_i → {i+1, i+4}), variant 1
  // rotates −60° (p_i → {i-1, i+2}); C picks per site.
  const W pA0 = p0 & ~C, pB0 = p0 & C;
  const W pA1 = p1 & ~C, pB1 = p1 & C;
  const W pA2 = p2 & ~C, pB2 = p2 & C;

  W b0 = (a0 & ~ev) | pA2 | pB1 | tr1;
  W b1 = (a1 & ~ev) | pA0 | pB2 | tr0;
  W b2 = (a2 & ~ev) | pA1 | pB0 | tr1;
  W b3 = (a3 & ~ev) | pA2 | pB1 | tr0;
  W b4 = (a4 & ~ev) | pA0 | pB2 | tr1;
  W b5 = (a5 & ~ev) | pA1 | pB0 | tr0;
  if constexpr (HasRest) {
    b0 |= ann5 | ann1 | cre5;
    b1 |= ann0 | ann2 | cre0;
    b2 |= ann1 | ann3 | cre1;
    b3 |= ann2 | ann4 | cre2;
    b4 |= ann3 | ann5 | cre3;
    b5 |= ann4 | ann0 | cre4;
  }

  // Obstacle sites bounce every gathered particle straight back and
  // keep their rest bit.
  store(out[0] + k, ((b0 & ~o) | (a3 & o)) & m);
  store(out[1] + k, ((b1 & ~o) | (a4 & o)) & m);
  store(out[2] + k, ((b2 & ~o) | (a5 & o)) & m);
  store(out[3] + k, ((b3 & ~o) | (a0 & o)) & m);
  store(out[4] + k, ((b4 & ~o) | (a1 & o)) & m);
  store(out[5] + k, ((b5 & ~o) | (a2 & o)) & m);
  if constexpr (HasRest) {
    const W br = (r & ~ann_any) | cre_any;
    store(out[6] + k, ((br & ~o) | (r & o)) & m);
  }
}

/// The SpanFn entries of a word type's PlaneSpanOps table.
template <class W>
void hpp_span(const std::uint64_t* const src[6], const int dx[6],
              const std::uint64_t* /*rest*/, const std::uint64_t* obst,
              std::uint64_t* const out[8], std::int64_t k0, std::int64_t k1,
              std::int64_t /*y*/, std::int64_t /*t*/, std::int64_t last_word,
              std::uint64_t tail_mask) {
  span_loop<W>(k0, k1, last_word, tail_mask, [&](auto m, std::int64_t k) {
    hpp_block(src, dx, obst, out, k, m);
  });
}

template <class W, bool HasRest>
void fhp_span(const std::uint64_t* const src[6], const int dx[6],
              const std::uint64_t* rest, const std::uint64_t* obst,
              std::uint64_t* const out[8], std::int64_t k0, std::int64_t k1,
              std::int64_t y, std::int64_t t, std::int64_t last_word,
              std::uint64_t tail_mask) {
  span_loop<W>(k0, k1, last_word, tail_mask, [&](auto m, std::int64_t k) {
    fhp_block<HasRest>(src, dx, rest, obst, out, k, y, t, m);
  });
}

}  // namespace
}  // namespace lattice::lgca::detail
