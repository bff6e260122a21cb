#include "lattice/lgca3d/lattice3.hpp"

#include <algorithm>
#include <utility>

#include "lattice/common/rng.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"

namespace lattice::lgca3d {

namespace {
constexpr std::int64_t wrap3(std::int64_t v, std::int64_t m) noexcept {
  const std::int64_t r = v % m;
  return r < 0 ? r + m : r;
}
}  // namespace

void validate_extent3(Extent3 extent) {
  LATTICE_REQUIRE(extent.nx > 0 && extent.ny > 0 && extent.nz > 0,
                  "Extent3 sides must be positive");
  LATTICE_REQUIRE(extent.nx <= kMaxSide3 && extent.ny <= kMaxSide3 &&
                      extent.nz <= kMaxSide3,
                  "Extent3 side exceeds kMaxSide3");
  // Overflow-safe volume bound: divide instead of multiply.
  LATTICE_REQUIRE(extent.ny <= kMaxSites3 / extent.nx &&
                      extent.nz <= kMaxSites3 / (extent.nx * extent.ny),
                  "Extent3 volume exceeds kMaxSites3");
}

Lattice3::Lattice3(Extent3 extent, Boundary3 boundary)
    : extent_(extent), boundary_(boundary) {
  validate_extent3(extent);
  data_.assign(static_cast<std::size_t>(extent.volume()), 0);
}

Site Lattice3::get(Vec3 c) const noexcept {
  if (extent_.contains(c)) return data_[index(c)];
  if (boundary_ == Boundary3::Null) return 0;
  return data_[index({wrap3(c.x, extent_.nx), wrap3(c.y, extent_.ny),
                      wrap3(c.z, extent_.nz)})];
}

Invariants3 measure_invariants(const Lattice3& lat) {
  const Gas3Model& m = Gas3Model::get();
  const auto hist = lgca::site_histogram(lat.data(), lat.site_count());
  Invariants3 inv;
  for (int v = 0; v < 256; ++v) {
    const std::int64_t n = hist[static_cast<std::size_t>(v)];
    if (n == 0) continue;
    const auto s = static_cast<Site>(v);
    const Vec3 p = m.momentum(s);
    inv.mass += n * m.mass(s);
    inv.momentum = inv.momentum + Vec3{n * p.x, n * p.y, n * p.z};
    if (is_obstacle(s)) inv.obstacles += n;
  }
  return inv;
}

void reference_step(Lattice3& lat, std::int64_t t) {
  Lattice3 out(lat.extent(), lat.boundary());
  reference_step(lat.data(), out.data(), lat.extent(), lat.boundary(), t);
  lat = std::move(out);
}

void reference_step(const Site* in, Site* out, Extent3 e, Boundary3 boundary,
                    std::int64_t t) {
  const Gas3Model& m = Gas3Model::get();
  const auto index = [&](Vec3 c) {
    return static_cast<std::size_t>((c.z * e.ny + c.y) * e.nx + c.x);
  };
  // Boundary-resolved read, as Lattice3::get.
  const auto get = [&](Vec3 c) -> Site {
    if (e.contains(c)) return in[index(c)];
    if (boundary == Boundary3::Null) return 0;
    return in[index({wrap3(c.x, e.nx), wrap3(c.y, e.ny), wrap3(c.z, e.nz)})];
  };
  for (std::int64_t z = 0; z < e.nz; ++z) {
    for (std::int64_t y = 0; y < e.ny; ++y) {
      for (std::int64_t x = 0; x < e.nx; ++x) {
        const Vec3 a{x, y, z};
        // Gather: channel d arrives from the neighbor at a - e_d.
        Site s = 0;
        for (int d = 0; d < kChannels; ++d) {
          const Vec3 v = velocity_of(d);
          const Vec3 src{x - v.x, y - v.y, z - v.z};
          if ((get(src) & channel_bit(d)) != 0) s |= channel_bit(d);
        }
        s |= static_cast<Site>(in[index(a)] & kObstacleBit);
        out[index(a)] = m.collide(s, Gas3Model::chirality(x, y, z, t));
      }
    }
  }
}

void reference_run(Lattice3& lat, std::int64_t generations,
                   std::int64_t t0) {
  for (std::int64_t g = 0; g < generations; ++g) reference_step(lat, t0 + g);
}

void reference_unstep(Lattice3& lat, std::int64_t t) {
  LATTICE_REQUIRE(lat.boundary() == Boundary3::Periodic,
                  "exact reversal needs periodic boundaries");
  const Gas3Model& m = Gas3Model::get();
  const Extent3 e = lat.extent();

  // Invert the collisions (the variants are mutual inverses), then
  // send every gathered particle back where it came from.
  Lattice3 gathered(e, Boundary3::Periodic);
  for (std::int64_t z = 0; z < e.nz; ++z) {
    for (std::int64_t y = 0; y < e.ny; ++y) {
      for (std::int64_t x = 0; x < e.nx; ++x) {
        const int v = Gas3Model::chirality(x, y, z, t);
        gathered.at({x, y, z}) = m.collide(lat.at({x, y, z}), 1 - v);
      }
    }
  }
  Lattice3 out(e, Boundary3::Periodic);
  for (std::int64_t z = 0; z < e.nz; ++z) {
    for (std::int64_t y = 0; y < e.ny; ++y) {
      for (std::int64_t x = 0; x < e.nx; ++x) {
        Site s = 0;
        for (int d = 0; d < kChannels; ++d) {
          const Vec3 vel = velocity_of(d);
          if ((gathered.get({x + vel.x, y + vel.y, z + vel.z}) &
               channel_bit(d)) != 0) {
            s |= channel_bit(d);
          }
        }
        s |= static_cast<Site>(gathered.at({x, y, z}) & kObstacleBit);
        out.at({x, y, z}) = s;
      }
    }
  }
  lat = out;
}

void fill_random(Lattice3& lat, double density, std::uint64_t seed) {
  // Rows are the ny·nz x-rows in raster order: the serial stream's order.
  const Extent3 e = lat.extent();
  Site* const sites = lat.data();
  lgca::fill_rows(
      seed, e.ny * e.nz, e.nx,
      [&](std::int64_t row) {
        const Site* r = sites + row * e.nx;
        return static_cast<std::uint64_t>(
            kChannels * std::count_if(r, r + e.nx, [](Site s) {
              return !is_obstacle(s);
            }));
      },
      [&](Pcg32& rng, std::int64_t row) {
        Site* r = sites + row * e.nx;
        for (std::int64_t x = 0; x < e.nx; ++x) {
          if (is_obstacle(r[x])) continue;
          Site v = 0;
          for (int d = 0; d < kChannels; ++d) {
            if (rng.next_bool(density)) v |= channel_bit(d);
          }
          r[x] = v;
        }
      });
}

}  // namespace lattice::lgca3d
