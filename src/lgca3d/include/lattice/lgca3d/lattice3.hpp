// 3-D site lattice, golden reference updater, and observables.

#pragma once

#include <cstdint>
#include <vector>

#include "lattice/lgca3d/gas3.hpp"

namespace lattice::lgca3d {

/// 3-D box extent.
struct Extent3 {
  std::int64_t nx = 0;
  std::int64_t ny = 0;
  std::int64_t nz = 0;
  friend constexpr bool operator==(Extent3, Extent3) = default;
  constexpr std::int64_t volume() const noexcept { return nx * ny * nz; }
  constexpr bool contains(Vec3 c) const noexcept {
    return c.x >= 0 && c.x < nx && c.y >= 0 && c.y < ny && c.z >= 0 &&
           c.z < nz;
  }
};

/// Largest per-axis extent any 3-D container accepts — the same bound
/// checkpoint headers enforce, so a lattice that can be built can also
/// be serialized.
inline constexpr std::int64_t kMaxSide3 = std::int64_t{1} << 24;
/// Largest accepted nx*ny*nz. Far above anything that fits in memory,
/// but small enough that volume() and every byte-size computation
/// derived from it stay clear of int64 overflow.
inline constexpr std::int64_t kMaxSites3 = std::int64_t{1} << 42;

/// Throws lattice::Error unless 0 < nx,ny,nz <= kMaxSide3 and the
/// volume is <= kMaxSites3 (checked without overflowing). Every 3-D
/// container validates through this, so a hostile extent — negative,
/// zero, or overflow-prone — fails with a typed error before any
/// allocation is attempted.
void validate_extent3(Extent3 extent);

enum class Boundary3 { Null, Periodic };

class Lattice3 {
 public:
  Lattice3() = default;
  Lattice3(Extent3 extent, Boundary3 boundary);

  Extent3 extent() const noexcept { return extent_; }
  Boundary3 boundary() const noexcept { return boundary_; }
  std::size_t site_count() const noexcept { return data_.size(); }

  /// Raster index: x fastest, then y, then z.
  std::size_t index(Vec3 c) const noexcept {
    return static_cast<std::size_t>((c.z * extent_.ny + c.y) * extent_.nx +
                                    c.x);
  }

  Site get(Vec3 c) const noexcept;  // boundary-resolved read
  Site& at(Vec3 c) { return data_[index(c)]; }
  Site at(Vec3 c) const { return data_[index(c)]; }
  Site& operator[](std::size_t i) { return data_[i]; }
  Site operator[](std::size_t i) const { return data_[i]; }

  /// Raw raster storage ((z*ny + y)*nx + x) — byte-compatible with a
  /// 2-D SiteLattice of extent {nx, ny*nz}, which is how the engine
  /// carries 3-D state through its dimension-blind layers.
  Site* data() noexcept { return data_.data(); }
  const Site* data() const noexcept { return data_.data(); }

  friend bool operator==(const Lattice3& a, const Lattice3& b) {
    return a.boundary_ == b.boundary_ && a.extent_ == b.extent_ &&
           a.data_ == b.data_;
  }

 private:
  Extent3 extent_{};
  Boundary3 boundary_ = Boundary3::Null;
  std::vector<Site> data_;
};

/// Exact invariants.
struct Invariants3 {
  std::int64_t mass = 0;
  Vec3 momentum;
  std::int64_t obstacles = 0;
  friend bool operator==(const Invariants3&, const Invariants3&) = default;
};

Invariants3 measure_invariants(const Lattice3& lat);

/// One full gather-and-collide generation (golden reference).
void reference_step(Lattice3& lat, std::int64_t t);
/// The same generation over raw raster storage, from `in` into a
/// distinct `out` of the same extent — for callers that hold the volume
/// in another container (the engine's flat byte view) and should not
/// copy it into a Lattice3 first.
void reference_step(const Site* in, Site* out, Extent3 extent,
                    Boundary3 boundary, std::int64_t t);
void reference_run(Lattice3& lat, std::int64_t generations,
                   std::int64_t t0 = 0);

/// Exactly undo one generation (microscopic reversibility; needs
/// periodic boundaries). `t` is the time passed to the forward step.
void reference_unstep(Lattice3& lat, std::int64_t t);

/// Fill non-obstacle sites with per-channel density (seeded).
void fill_random(Lattice3& lat, double density, std::uint64_t seed);

}  // namespace lattice::lgca3d
