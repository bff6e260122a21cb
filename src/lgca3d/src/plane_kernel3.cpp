#include "lattice/lgca3d/plane_kernel3.hpp"

#include <bit>

#include "lattice/common/error.hpp"

namespace lattice::lgca3d {

namespace {

constexpr int kStaticZeroPlane = 6;
constexpr int kObstaclePlane = 7;

// One row of the cubic-gas update: gather (funnel shift on the ±x
// planes, whole-row reads for everything else), word-parallel pair
// swaps, per-event 3-cycle fixup, obstacle bounce. The collision
// algebra follows the (mass, momentum) class structure of Gas3Model's
// table:
//
//   With the per-axis summaries  U2 = both channels,  Ur = exactly one,
//   U0 = neither  (U in {X, Y, Z}), the six size-2 classes — a single
//   mover on axis u riding with a head-on pair on exactly one other
//   axis — are detected by
//     ex = Xr & ((Y2 & Z0) | (Y0 & Z2))     (and cyclically ey, ez),
//   and each is its own inverse (a 2-element class cycles to its other
//   member under either chirality), so the fix is a chirality-free XOR
//   toggling both channels of both *other* axes: the present pair
//   vanishes and the absent one appears.
//
//   The two 3-element classes — {3, 12, 48} (one full pair) and
//   {15, 51, 60} (two full pairs) — are exactly the non-empty,
//   non-full states whose axes each carry a pair or nothing:
//     ev = pure & ~none & ~full2,  pure = (X2|X0)&(Y2|Y0)&(Z2|Z0).
//   Those cycle under chirality, so they go through the table per
//   *event* bit (exact multi-pair configurations — rare at working
//   densities), like the 2-D kernel's head-on pair hash.
//
//   Every other moving state is a singleton class: identity. The two
//   detectors are disjoint (ev needs every axis in {0, 2}; the swaps
//   need one axis in state r), so the sparse fixup XORs into words the
//   parallel part left untouched at those bits.
void gas3_span(const std::uint64_t* const src[kChannels],
               const std::uint64_t* obst,
               std::uint64_t* const out[kChannels], std::int64_t words,
               std::uint64_t tail, std::int64_t y, std::int64_t sem_z,
               std::int64_t t) {
  const Gas3Model& model = Gas3Model::get();
  const std::int64_t last = words - 1;
  for (std::int64_t k = 0; k < words; ++k) {
    const std::uint64_t m = k == last ? tail : ~std::uint64_t{0};
    // Gather: channel d arrives from the site at -e_d, so +x shifts
    // left through the guard word and -x shifts right.
    const std::uint64_t a0 = (src[0][k] << 1) | (src[0][k - 1] >> 63);
    const std::uint64_t a1 = (src[1][k] >> 1) | (src[1][k + 1] << 63);
    const std::uint64_t a2 = src[2][k];
    const std::uint64_t a3 = src[3][k];
    const std::uint64_t a4 = src[4][k];
    const std::uint64_t a5 = src[5][k];
    const std::uint64_t o = obst[k];

    const std::uint64_t x2 = a0 & a1, xr = a0 ^ a1, x0 = ~(a0 | a1);
    const std::uint64_t y2 = a2 & a3, yr = a2 ^ a3, y0 = ~(a2 | a3);
    const std::uint64_t z2 = a4 & a5, zr = a4 ^ a5, z0 = ~(a4 | a5);

    const std::uint64_t ex = xr & ((y2 & z0) | (y0 & z2));
    const std::uint64_t ey = yr & ((x2 & z0) | (x0 & z2));
    const std::uint64_t ez = zr & ((x2 & y0) | (x0 & y2));

    std::uint64_t b0 = a0 ^ (ey | ez);
    std::uint64_t b1 = a1 ^ (ey | ez);
    std::uint64_t b2 = a2 ^ (ex | ez);
    std::uint64_t b3 = a3 ^ (ex | ez);
    std::uint64_t b4 = a4 ^ (ex | ey);
    std::uint64_t b5 = a5 ^ (ex | ey);

    const std::uint64_t none = x0 & y0 & z0;
    const std::uint64_t full2 = x2 & y2 & z2;
    const std::uint64_t pure = (x2 | x0) & (y2 | y0) & (z2 | z0);
    std::uint64_t ev = pure & ~none & ~full2 & ~o & m;
    while (ev != 0) {
      const int j = std::countr_zero(ev);
      ev &= ev - 1;
      const std::uint64_t bit = std::uint64_t{1} << j;
      const Site in = static_cast<Site>(
          ((a0 >> j) & 1) | (((a1 >> j) & 1) << 1) | (((a2 >> j) & 1) << 2) |
          (((a3 >> j) & 1) << 3) | (((a4 >> j) & 1) << 4) |
          (((a5 >> j) & 1) << 5));
      const int v = Gas3Model::chirality(k * 64 + j, y, sem_z, t);
      const Site d = static_cast<Site>(in ^ (model.collide(in, v) &
                                             kMovingMask));
      if ((d & channel_bit(0)) != 0) b0 ^= bit;
      if ((d & channel_bit(1)) != 0) b1 ^= bit;
      if ((d & channel_bit(2)) != 0) b2 ^= bit;
      if ((d & channel_bit(3)) != 0) b3 ^= bit;
      if ((d & channel_bit(4)) != 0) b4 ^= bit;
      if ((d & channel_bit(5)) != 0) b5 ^= bit;
    }

    // Obstacle bounce-back: each channel takes its opposite's gathered
    // bit (the table's reflect), overriding any collision algebra.
    out[0][k] = ((b0 & ~o) | (a1 & o)) & m;
    out[1][k] = ((b1 & ~o) | (a0 & o)) & m;
    out[2][k] = ((b2 & ~o) | (a3 & o)) & m;
    out[3][k] = ((b3 & ~o) | (a2 & o)) & m;
    out[4][k] = ((b4 & ~o) | (a5 & o)) & m;
    out[5][k] = ((b5 & ~o) | (a4 & o)) & m;
  }
}

}  // namespace

PlaneKernel3::PlaneKernel3(std::int64_t ny) : ny_(ny) {
  LATTICE_REQUIRE(ny >= 1, "PlaneKernel3 needs at least one row per z-plane");
}

void PlaneKernel3::prime_static_planes(lgca::PlaneLattice& lat,
                                       lgca::PlaneLattice& next) const {
  LATTICE_ASSERT(next.extent() == lat.extent() &&
                     next.boundary() == lat.boundary(),
                 "prime_static_planes: buffer shapes differ");
  const std::int64_t words = lat.words_per_row();
  if (words == 0) return;
  const std::uint64_t tail = lat.tail_mask();
  for (std::int64_t r = 0; r < lat.extent().height; ++r) {
    // Bit 6 is not a channel: the reference gather never reads it, so
    // it is zero from generation 1 on — clearing it up front in both
    // buffers reproduces that for every produced state.
    std::uint64_t* za = lat.row(kStaticZeroPlane, r);
    std::uint64_t* zb = next.row(kStaticZeroPlane, r);
    for (std::int64_t k = 0; k < words; ++k) za[k] = 0;
    for (std::int64_t k = 0; k < words; ++k) zb[k] = 0;
    const std::uint64_t* src = lat.row(kObstaclePlane, r);
    std::uint64_t* dst = next.row(kObstaclePlane, r);
    for (std::int64_t k = 0; k < words; ++k) dst[k] = src[k];
    dst[words - 1] &= tail;
  }
}

void PlaneKernel3::update_unit_window(lgca::PlaneLattice& next,
                                      std::int64_t dst_z,
                                      const lgca::PlaneLattice& cur,
                                      std::int64_t src_z, std::int64_t sem_z,
                                      std::int64_t t) const {
  LATTICE_ASSERT(next.words_per_row() == cur.words_per_row(),
                 "update_unit_window: row widths differ");
  const std::int64_t ny = ny_;
  const std::int64_t nz = cur.extent().height / ny;
  LATTICE_ASSERT(dst_z >= 0 && (dst_z + 1) * ny <= next.extent().height &&
                     src_z >= 0 && src_z < nz,
                 "update_unit_window out of range");
  const std::int64_t words = cur.words_per_row();
  if (words == 0) return;
  const bool periodic = cur.boundary() == lgca::Boundary::Periodic;
  const auto row = [&](int plane, std::int64_t z, std::int64_t y) {
    return cur.row(plane, z * ny + y);
  };

  // The z taps resolve against cur's *own* depth and boundary, so a
  // Null-boundary scratch slab whose storage range is clamped to the
  // real volume edge reads the same zero planes the golden updater
  // would (the tiled driver's scratch base keeps the clamp aligned
  // with the edge).
  std::int64_t zm = src_z - 1;
  std::int64_t zp = src_z + 1;
  bool zm_zero = false;
  bool zp_zero = false;
  if (zm < 0) {
    if (periodic) {
      zm = nz - 1;
    } else {
      zm_zero = true;
    }
  }
  if (zp >= nz) {
    if (periodic) {
      zp = 0;
    } else {
      zp_zero = true;
    }
  }

  for (std::int64_t y = 0; y < ny; ++y) {
    const std::int64_t ym = y - 1;
    const std::int64_t yp = y + 1;
    const std::uint64_t* src[kChannels];
    src[0] = row(0, src_z, y);
    src[1] = row(1, src_z, y);
    src[2] = ym < 0 ? (periodic ? row(2, src_z, ny - 1) : cur.zero_row())
                    : row(2, src_z, ym);
    src[3] = yp >= ny ? (periodic ? row(3, src_z, 0) : cur.zero_row())
                      : row(3, src_z, yp);
    src[4] = zm_zero ? cur.zero_row() : row(4, zm, y);
    src[5] = zp_zero ? cur.zero_row() : row(5, zp, y);
    const std::uint64_t* obst = row(kObstaclePlane, src_z, y);
    std::uint64_t* out[kChannels];
    for (int p = 0; p < kChannels; ++p) out[p] = next.row(p, dst_z * ny + y);
    gas3_span(src, obst, out, words, cur.tail_mask(), y, sem_z, t);
  }
}

void PlaneKernel3::update_units(lgca::PlaneLattice& next,
                                const lgca::PlaneLattice& cur, std::int64_t t,
                                std::int64_t z0, std::int64_t z1) const {
  LATTICE_ASSERT(next.extent() == cur.extent() &&
                     next.boundary() == cur.boundary(),
                 "update_units: source and destination lattices differ");
  LATTICE_ASSERT(z0 >= 0 && z1 * ny_ <= cur.extent().height,
                 "update_units out of range");
  if (cur.words_per_row() == 0 || z0 >= z1) return;
  for (std::int64_t z = z0; z < z1; ++z) {
    update_unit_window(next, z, cur, z, z, t);
  }
  // Leave the produced planes halo-ready for the next generation,
  // band-locally and cache-hot, as the 2-D update_rows does.
  next.prepare_shift_halo(halo_planes(), z0 * ny_, z1 * ny_);
}

void plane_gas_run3(PlaneLattice3& lat, std::int64_t generations,
                    std::int64_t t0, unsigned threads) {
  const PlaneKernel3 kernel(lat.extent3().ny);
  lgca::plane_gas_run(lat.inner(), kernel, generations, t0, threads);
}

void plane_gas_run_tiled3(PlaneLattice3& lat, std::int64_t generations,
                          std::int64_t t0, unsigned threads,
                          const lgca::TemporalTiling& tiling) {
  const PlaneKernel3 kernel(lat.extent3().ny);
  lgca::plane_gas_run_tiled(lat.inner(), kernel, generations, t0, threads,
                            tiling);
}

}  // namespace lattice::lgca3d
