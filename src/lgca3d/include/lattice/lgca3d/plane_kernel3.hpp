// Bit-parallel update of the cubic 3-D gas over the PlaneLattice3 planes.
//
// Same construction as the 2-D PlaneKernel, one dimension up:
// propagation is a funnel shift on the ±x channel planes (identical
// word structure to 2-D — the guard-word halo makes it branch-free)
// plus whole-row reads of the y/z neighbor rows, and collision is
// boolean algebra derived from the class structure of Gas3Model's
// table. That structure splits cleanly:
//
//   pair-swap classes — a single mover on axis u plus a head-on pair
//       on one other axis; the collision moves the pair to the third
//       axis. Six size-2 classes, each its own inverse, so they are
//       chirality-independent and evaluate word-parallel (the ex/ey/ez
//       masks below).
//   axis-cycle classes — the zero-momentum states whose axes each
//       carry a full pair or nothing: {x, y, z} pairs (mass 2) and
//       {xy, xz, yz} double-pairs (mass 4) each form a 3-cycle whose
//       direction is the chirality variant. Exact multi-pair
//       configurations, hence rare at working densities — handled per
//       *event* site through the Gas3Model table, exactly like the 2-D
//       kernel's per-event chirality hash.
//   everything else — singleton classes: identity.
//
// Obstacle sites bounce (each channel takes its opposite's gathered
// bit), and the obstacle plane itself is static — primed once per run.
// The spans here are scalar64 only: the 3-D kernel is new enough that
// the vector variants have not been ported, and because every fault
// draw is keyed by global (x, y, z) through the flat lattice,
// scalar-only execution is bit-identical on every host no matter which
// SIMD level the 2-D kernels dispatch to. Bit-identical to
// lgca3d::reference_step per site, by construction and by the
// exhaustive parity matrix in tests/test_plane_lattice3.cpp.
//
// There is no 3-D driver. PlaneKernel3 is an lgca::PlaneUnitKernel
// over the flat {nx, ny·nz} PlaneLattice (row z·ny + y) whose row unit
// is one z-slab of ny rows, so the one plane driver,
// lgca::plane_gas_run_tiled, bands and tiles it exactly as it does a
// 2-D gas: up to `threads` contiguous z-slab bands owned by persistent
// pool lanes, one barrier per generation — the software shape of the
// sliced 3-D SPA, slabs exchanging faces at each generation barrier —
// and trapezoidal z-slab tiles advanced depth generations per memory
// visit, the §7 Theorem 4 schedule at d = 3, R = O(B·S^(1/3)).

#pragma once

#include <cstdint>

#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"

namespace lattice::lgca3d {

class PlaneKernel3 final : public lgca::PlaneUnitKernel {
 public:
  /// The kernel for volumes with `ny` rows per z-plane: its row unit
  /// is one z-slab of the flat lattice.
  explicit PlaneKernel3(std::int64_t ny);

  /// The six channel planes; obstacle (7) is static, 6 is unused.
  std::uint32_t written_planes() const noexcept override { return 0x3fu; }
  /// Only the ±x channels gather with a column shift.
  std::uint32_t halo_planes() const noexcept override { return 0x03u; }

  /// Zero the static-zero plane (6) in both buffers and copy the
  /// obstacle plane into `next`, tail-masked.
  void prime_static_planes(lgca::PlaneLattice& lat,
                           lgca::PlaneLattice& next) const override;

  std::int64_t unit_rows() const noexcept override { return ny_; }

  /// Compute generation-(t+1) z-planes [z0, z1) (see
  /// PlaneUnitKernel::update_units).
  void update_units(lgca::PlaneLattice& next, const lgca::PlaneLattice& cur,
                    std::int64_t t, std::int64_t z0,
                    std::int64_t z1) const override;

  /// One full z-plane. `sem_z` feeds the chirality hash alone, since
  /// the cubic taps have no parity structure. Source z-planes resolve
  /// as src_z ± 1 against cur's own depth (height / ny) and boundary;
  /// y taps resolve within the z-plane, x taps through the shift halo.
  void update_unit_window(lgca::PlaneLattice& next, std::int64_t dst_z,
                          const lgca::PlaneLattice& cur, std::int64_t src_z,
                          std::int64_t sem_z, std::int64_t t) const override;

 private:
  std::int64_t ny_;
};

/// lgca::plane_gas_run with the 3-D kernel on a packed volume.
void plane_gas_run3(PlaneLattice3& lat, std::int64_t generations,
                    std::int64_t t0 = 0, unsigned threads = 1);

/// lgca::plane_gas_run_tiled with the 3-D kernel on a packed volume;
/// tiling.tile_rows counts output z-planes per tile.
void plane_gas_run_tiled3(PlaneLattice3& lat, std::int64_t generations,
                          std::int64_t t0, unsigned threads,
                          const lgca::TemporalTiling& tiling);

}  // namespace lattice::lgca3d
