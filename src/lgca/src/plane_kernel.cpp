#include "lattice/lgca/plane_kernel.hpp"

#include <algorithm>

#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/geometry.hpp"
#include "lattice/lgca/plane_simd.hpp"

namespace lattice::lgca {

namespace {

// Planes 0..5 are the moving channels; these two carry the center bits.
constexpr int kRestPlane = 6;
constexpr int kObstaclePlane = 7;

}  // namespace

PlaneKernel::PlaneKernel(GasKind kind)
    : model_(&GasModel::get(kind)),
      channels_(model_->channels()),
      span_(kind == GasKind::HPP     ? &PlaneSpanOps::hpp
            : kind == GasKind::FHP_I ? &PlaneSpanOps::fhp1
                                     : &PlaneSpanOps::fhp2) {
  const Topology topo = model_->topology();
  for (int parity = 0; parity < 2; ++parity) {
    for (int i = 0; i < channels_; ++i) {
      const Offset o =
          neighbor_offset(topo, opposite_dir(topo, i), parity == 1);
      taps_[static_cast<std::size_t>(parity)][static_cast<std::size_t>(i)] = {
          static_cast<std::int8_t>(o.dx), static_cast<std::int8_t>(o.dy)};
      if (o.dx != 0) halo_ |= 1u << i;
    }
  }
  written_ = (1u << channels_) - 1u;
  if (kind == GasKind::FHP_II) written_ |= 1u << kRestPlane;
  cost_ = kind == GasKind::HPP ? 1 : kind == GasKind::FHP_I ? 5 : 7;
}

void PlaneKernel::prime_static_planes(PlaneLattice& lat,
                                      PlaneLattice& next) const {
  LATTICE_ASSERT(next.extent() == lat.extent() &&
                     next.boundary() == lat.boundary(),
                 "prime_static_planes: buffer shapes differ");
  const std::int64_t words = lat.words_per_row();
  if (words == 0) return;
  const std::uint64_t tail = lat.tail_mask();
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    if (((written_ >> p) & 1u) != 0) continue;
    for (std::int64_t y = 0; y < lat.extent().height; ++y) {
      const std::uint64_t* src = lat.row(p, y);
      std::uint64_t* dst = next.row(p, y);
      if (p == kObstaclePlane) {
        for (std::int64_t k = 0; k < words; ++k) dst[k] = src[k];
        dst[words - 1] &= tail;
      } else {
        // Static-zero plane: the update used to clear it every word of
        // every generation; now it is cleared once in both buffers.
        std::uint64_t* mut = lat.row(p, y);
        for (std::int64_t k = 0; k < words; ++k) mut[k] = 0;
        for (std::int64_t k = 0; k < words; ++k) dst[k] = 0;
      }
    }
  }
}

bool PlaneKernel::supports(GasKind kind) noexcept {
  return kind == GasKind::HPP || kind == GasKind::FHP_I ||
         kind == GasKind::FHP_II;
}

const PlaneKernel& PlaneKernel::get(GasKind kind) {
  LATTICE_REQUIRE(supports(kind),
                  "no bit-plane kernel for this gas: FHP-III's collision "
                  "table is a class permutation with no compact boolean "
                  "form — use the byte-LUT path");
  static const PlaneKernel hpp(GasKind::HPP);
  static const PlaneKernel fhp1(GasKind::FHP_I);
  static const PlaneKernel fhp2(GasKind::FHP_II);
  switch (kind) {
    case GasKind::HPP: return hpp;
    case GasKind::FHP_I: return fhp1;
    default: return fhp2;
  }
}

const PlaneKernel* PlaneKernel::try_get(const Rule& rule) {
  const auto* gas = dynamic_cast<const GasRule*>(&rule);
  if (gas == nullptr || !supports(gas->model().kind())) return nullptr;
  return &get(gas->model().kind());
}

// The shared row core. `sem_y` is the semantic lattice row: it selects
// the hex-parity tap set and feeds the chirality hash, while `src_y` /
// `dst_y` are storage rows in `cur` / `next` — identical in the plain
// sweep, offset in the temporal-tile scratch strips. Source rows
// resolve against cur's own height/boundary, so a Null-boundary scratch
// strip whose storage range is clamped to the real lattice edge reads
// the same zero rows the golden updater would.
void PlaneKernel::update_row_span(PlaneLattice& next, std::int64_t dst_y,
                                  const PlaneLattice& cur, std::int64_t src_y,
                                  std::int64_t sem_y, const PlaneSpanOps& ops,
                                  std::int64_t t, std::int64_t k0,
                                  std::int64_t k1) const {
  const Extent e = cur.extent();
  const bool periodic = cur.boundary() == Boundary::Periodic;
  const auto& taps = taps_[(sem_y & 1) ? 1 : 0];
  const std::uint64_t* src[6] = {};
  int dx[6] = {};
  for (int i = 0; i < channels_; ++i) {
    const Tap tap = taps[static_cast<std::size_t>(i)];
    dx[i] = tap.dx;
    std::int64_t ny = src_y + tap.dy;
    if (ny < 0 || ny >= e.height) {
      if (!periodic) {
        src[i] = cur.zero_row();
        continue;
      }
      ny = wrap(ny, e.height);
    }
    src[i] = cur.row(i, ny);
  }
  const std::uint64_t* rest = cur.row(kRestPlane, src_y);
  const std::uint64_t* obst = cur.row(kObstaclePlane, src_y);
  std::uint64_t* out[PlaneLattice::kPlanes];
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) out[p] = next.row(p, dst_y);
  const std::int64_t last = cur.words_per_row() - 1;
  const std::uint64_t tail = cur.tail_mask();
  (ops.*span_)(src, dx, rest, obst, out, k0, k1, sem_y, t, last, tail);
}

void PlaneKernel::update_unit_window(PlaneLattice& next, std::int64_t dst_y,
                                     const PlaneLattice& cur,
                                     std::int64_t src_y, std::int64_t sem_y,
                                     std::int64_t t) const {
  LATTICE_ASSERT(next.words_per_row() == cur.words_per_row(),
                 "update_unit_window: row widths differ");
  LATTICE_ASSERT(dst_y >= 0 && dst_y < next.extent().height &&
                     src_y >= 0 && src_y < cur.extent().height,
                 "update_unit_window out of range");
  const std::int64_t words = cur.words_per_row();
  if (words == 0) return;
  const PlaneSpanOps& ops = plane_span_ops(plane_simd_active());
  update_row_span(next, dst_y, cur, src_y, sem_y, ops, t, 0, words);
}

void PlaneKernel::update_rows(PlaneLattice& next, const PlaneLattice& cur,
                              std::int64_t t, std::int64_t y0, std::int64_t y1,
                              std::int64_t tile_words) const {
  LATTICE_ASSERT(next.extent() == cur.extent() &&
                     next.boundary() == cur.boundary(),
                 "update_rows: source and destination lattices differ");
  LATTICE_ASSERT(y0 >= 0 && y1 <= cur.extent().height,
                 "update_rows out of range");
  const std::int64_t words = cur.words_per_row();
  if (words == 0 || y0 >= y1) return;
  // One dispatch-table read per call: the span loops themselves are
  // ISA-resolved function pointers (scalar / AVX2 / AVX-512, all
  // bit-identical — see plane_simd.hpp).
  const PlaneSpanOps& ops = plane_span_ops(plane_simd_active());
  // Default tile: 4 row strips (3 source + 1 destination) × 8 planes ×
  // 1024 words × 8 B ≈ 256 KiB — sized for a typical L2, so wide
  // lattices are swept in cache-resident column strips.
  const std::int64_t tile = tile_words > 0 ? tile_words : 1024;
  for (std::int64_t kk = 0; kk < words; kk += tile) {
    const std::int64_t kend = std::min(words, kk + tile);
    for (std::int64_t y = y0; y < y1; ++y) {
      update_row_span(next, y, cur, y, y, ops, t, kk, kend);
    }
  }
  // Leave the produced rows halo-ready for the next generation. Doing
  // it here — per band, touching only the shifted planes, with the
  // rows' end words still in cache — replaces what used to be a serial
  // all-plane walk over the whole lattice between generations, which
  // on small rows cost as much as the vectorized sweep itself.
  next.prepare_shift_halo(halo_, y0, y1);
}

}  // namespace lattice::lgca
