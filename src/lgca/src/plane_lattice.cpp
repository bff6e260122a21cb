#include "lattice/lgca/plane_lattice.hpp"

#include <algorithm>
#include <cstring>

#include "lattice/common/thread_pool.hpp"

namespace lattice::lgca {

PlaneLattice::PlaneLattice(Extent extent, Boundary boundary)
    : extent_(extent), boundary_(boundary) {
  LATTICE_REQUIRE(extent.width >= 0 && extent.height >= 0,
                  "PlaneLattice extent must be non-negative");
  words_ = (extent.width + kWordBits - 1) / kWordBits;
  // kRowPad leading guard words, then payload + at least one trailing
  // guard, rounded up so the stride stays a multiple of kRowPad and
  // every row's payload begins on a 64-byte boundary.
  stride_ = kRowPad + (words_ + 1 + kRowPad - 1) / kRowPad * kRowPad;
  const int tail = static_cast<int>(extent.width % kWordBits);
  tail_mask_ = tail == 0 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << tail) - 1;
  data_.assign(static_cast<std::size_t>(kPlanes) *
                   static_cast<std::size_t>(extent.height) *
                   static_cast<std::size_t>(stride_),
               0);
  zeros_.assign(static_cast<std::size_t>(stride_), 0);
}

PlaneLattice::PlaneLattice(const SiteLattice& sites)
    : PlaneLattice(sites.extent(), sites.boundary()) {
  pack(sites);
}

namespace {

/// 8×8 bit-matrix transpose of the bytes of `x`: bit c of byte r moves
/// to bit r of byte c. Three delta swaps exchange the off-diagonal
/// 1×1, 2×2 and 4×4 sub-blocks.
inline std::uint64_t transpose_bits8(std::uint64_t x) noexcept {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

/// 8×8 byte-matrix transpose across eight words: byte r of w[m] moves
/// to byte m of w[r]. Same recursion one level up, in 8-, 16- and
/// 32-bit units.
inline void transpose_bytes8(std::uint64_t w[8]) noexcept {
  constexpr std::uint64_t kLo[3] = {0x00FF00FF00FF00FFULL,
                                    0x0000FFFF0000FFFFULL,
                                    0x00000000FFFFFFFFULL};
  for (int s = 0; s < 3; ++s) {
    const int d = 1 << s;     // word distance
    const int bits = 8 << s;  // unit width
    for (int i = 0; i < 8; ++i) {
      if ((i & d) != 0) continue;
      const std::uint64_t a = w[i];
      const std::uint64_t b = w[i + d];
      w[i] = (a & kLo[s]) | ((b << bits) & ~kLo[s]);
      w[i + d] = ((a >> bits) & kLo[s]) | (b & ~kLo[s]);
    }
  }
}

/// 64 sites -> one word per plane: transpose each 8-site block's bit
/// matrix, then gather the blocks' plane bytes into plane words.
inline void pack_word(const std::uint8_t* sites, std::uint64_t w[8]) noexcept {
  std::memcpy(w, sites, 64);
  for (int m = 0; m < 8; ++m) w[m] = transpose_bits8(w[m]);
  transpose_bytes8(w);
}

/// The inverse of pack_word (both transposes are involutions).
inline void unpack_word(std::uint64_t w[8], std::uint8_t* sites) noexcept {
  transpose_bytes8(w);
  for (int m = 0; m < 8; ++m) w[m] = transpose_bits8(w[m]);
  std::memcpy(sites, w, 64);
}

/// One row's transpose: `width` byte sites against payload words
/// [0, ceil(width / 64)) of the 8 plane rows. Pack leaves the tail bits
/// of the last word zero; unpack writes exactly `width` bytes and
/// ignores the tail bits.
void pack_row(const std::uint8_t* sites, std::int64_t width,
              std::uint64_t* const planes[8]) noexcept {
  const std::int64_t words = (width + 63) / 64;
  for (std::int64_t k = 0; k < words; ++k) {
    const std::int64_t n = std::min<std::int64_t>(64, width - 64 * k);
    std::uint64_t w[8];
    if (n == 64) {
      pack_word(sites + 64 * k, w);
    } else {
      std::uint8_t tail[64] = {};
      std::memcpy(tail, sites + 64 * k, static_cast<std::size_t>(n));
      pack_word(tail, w);
    }
    for (int p = 0; p < 8; ++p) planes[p][k] = w[p];
  }
}

void unpack_row(const std::uint64_t* const planes[8],
                std::int64_t width, std::uint8_t* sites) noexcept {
  const std::int64_t words = (width + 63) / 64;
  for (std::int64_t k = 0; k < words; ++k) {
    const std::int64_t n = std::min<std::int64_t>(64, width - 64 * k);
    std::uint64_t w[8];
    for (int p = 0; p < 8; ++p) w[p] = planes[p][k];
    if (n == 64) {
      unpack_word(w, sites + 64 * k);
    } else {
      std::uint8_t tail[64];
      unpack_word(w, tail);
      std::memcpy(sites + 64 * k, tail, static_cast<std::size_t>(n));
    }
  }
}

/// Call row_fn(y) for each of `rows` rows of `width` sites, the rows
/// split into at most `threads` contiguous bands on the shared pool,
/// each band at least kTransposeGrainSites large.
template <typename RowFn>
void for_each_row(std::int64_t rows, std::int64_t width, unsigned threads,
                  const RowFn& row_fn) {
  const std::int64_t bands = std::max(threads, 1u);
  const std::int64_t band_rows = std::max<std::int64_t>(
      {1,
       (PlaneLattice::kTransposeGrainSites + width - 1) /
           std::max<std::int64_t>(1, width),
       (rows + bands - 1) / bands});
  common::ThreadPool::shared().parallel_for(
      rows, band_rows, [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t y = y0; y < y1; ++y) row_fn(y);
      });
}

}  // namespace

void PlaneLattice::pack(const SiteLattice& sites, unsigned threads) {
  LATTICE_REQUIRE(sites.extent() == extent_,
                  "pack: byte lattice extent does not match");
  LATTICE_REQUIRE(sites.boundary() == boundary_,
                  "pack: byte lattice boundary mode does not match");
  const Site* src = sites.grid().data();
  for_each_row(extent_.height, extent_.width, threads, [&](std::int64_t y) {
    std::uint64_t* rows[kPlanes];
    for (int p = 0; p < kPlanes; ++p) {
      rows[p] = row(p, y);
      rows[p][-1] = 0;
      rows[p][words_] = 0;
    }
    pack_row(src + y * extent_.width, extent_.width, rows);
  });
}

void PlaneLattice::unpack(SiteLattice& sites, unsigned threads) const {
  LATTICE_REQUIRE(sites.extent() == extent_,
                  "unpack: byte lattice extent does not match");
  Site* dst = sites.grid().data();
  for_each_row(extent_.height, extent_.width, threads, [&](std::int64_t y) {
    const std::uint64_t* rows[kPlanes];
    for (int p = 0; p < kPlanes; ++p) rows[p] = row(p, y);
    unpack_row(rows, extent_.width, dst + y * extent_.width);
  });
}

SiteLattice PlaneLattice::to_sites() const {
  SiteLattice out(extent_, boundary_);
  unpack(out);
  return out;
}

void PlaneLattice::prepare_shift_halo() {
  prepare_shift_halo((1u << kPlanes) - 1u, 0, extent_.height);
}

void PlaneLattice::prepare_shift_halo(std::uint32_t plane_mask,
                                      std::int64_t y0, std::int64_t y1) {
  if (words_ == 0) return;
  const std::int64_t w = extent_.width;
  const int r = static_cast<int>(w % kWordBits);
  // Bit position of site width-1 inside the last payload word.
  const int hi = static_cast<int>((w - 1) % kWordBits);
  for (int p = 0; p < kPlanes; ++p) {
    if (((plane_mask >> p) & 1u) == 0) continue;
    for (std::int64_t y = y0; y < y1; ++y) {
      std::uint64_t* rp = row(p, y);
      if (boundary_ == Boundary::Null) {
        rp[-1] = 0;
        rp[words_] = 0;
        rp[words_ - 1] &= tail_mask_;
        continue;
      }
      // Periodic: tail bits of the last word continue with the row's
      // first sites, the left guard presents site width-1 at bit 63
      // (only that bit is ever shifted in), the right guard presents
      // site 0 at bit 0. The defensive tail mask makes this idempotent.
      const std::uint64_t first =
          words_ == 1 ? rp[0] & tail_mask_ : rp[0];
      const std::uint64_t last = rp[words_ - 1] & tail_mask_;
      if (r != 0) rp[words_ - 1] = last | (first << r);
      rp[words_] = first;
      rp[-1] = hi == 63 ? last : last << (63 - hi);
    }
  }
}

bool PlaneLattice::get(Coord c, int plane) const noexcept {
  const std::int64_t k = c.x / kWordBits;
  const int j = static_cast<int>(c.x % kWordBits);
  return ((row(plane, c.y)[k] >> j) & 1u) != 0;
}

Site PlaneLattice::site(Coord c) const noexcept {
  std::uint64_t s = 0;
  for (int p = 0; p < kPlanes; ++p) {
    s |= static_cast<std::uint64_t>(get(c, p)) << p;
  }
  return static_cast<Site>(s);
}

void PlaneLattice::set_site(Coord c, Site v) noexcept {
  const std::int64_t k = c.x / kWordBits;
  const int j = static_cast<int>(c.x % kWordBits);
  for (int p = 0; p < kPlanes; ++p) {
    std::uint64_t& word = row(p, c.y)[k];
    word &= ~(std::uint64_t{1} << j);
    word |= static_cast<std::uint64_t>((v >> p) & 1u) << j;
  }
}

bool operator==(const PlaneLattice& a, const PlaneLattice& b) {
  if (a.extent_ != b.extent_ || a.boundary_ != b.boundary_) return false;
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    for (std::int64_t y = 0; y < a.extent_.height; ++y) {
      const std::uint64_t* ra = a.row(p, y);
      const std::uint64_t* rb = b.row(p, y);
      for (std::int64_t k = 0; k < a.words_; ++k) {
        const std::uint64_t mask =
            k == a.words_ - 1 ? a.tail_mask_ : ~std::uint64_t{0};
        if ((ra[k] & mask) != (rb[k] & mask)) return false;
      }
    }
  }
  return true;
}

}  // namespace lattice::lgca
