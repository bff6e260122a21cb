// Physical observables of a lattice-gas state.
//
// Exact integer accounting (mass, momentum) plus coarse-grained fields
// used by the fluid-dynamics examples and the isotropy experiment (E8).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/lattice.hpp"

namespace lattice::lgca {

/// Exact global invariants of a configuration.
struct Invariants {
  std::int64_t mass = 0;       // total particle count
  std::int64_t px = 0;         // total momentum (integer units)
  std::int64_t py = 0;
  std::int64_t obstacles = 0;  // obstacle site count (geometry, static)

  friend bool operator==(const Invariants&, const Invariants&) = default;
};

/// Computed from a 256-bin site-state histogram dotted with the
/// model's per-state mass, momentum and obstacle flag: exactly the
/// per-site sums, at one table increment per site.
Invariants measure_invariants(const SiteLattice& lat, const GasModel& model);

/// How many of the `n` sites hold each of the 256 site states. Every
/// per-site sum of a function of the state is this histogram's dot
/// product with the function's table (measure_invariants, and the 3-D
/// gas's lgca3d::measure_invariants).
std::array<std::int64_t, 256> site_histogram(const Site* sites, std::size_t n);

/// Coarse-grained density/velocity over non-overlapping cells.
struct FlowCell {
  double density = 0;  // particles per site
  double ux = 0;       // mean momentum per particle, x (integer units)
  double uy = 0;
};

/// Coarse-grain `lat` into cells of `cell`×`cell` sites (edge cells may
/// be smaller). Returned grid is row-major, ceil(W/cell) × ceil(H/cell).
Grid<FlowCell> coarse_grain(const SiteLattice& lat, const GasModel& model,
                            std::int64_t cell);

/// How a particle cloud has spread from a point — used to watch a
/// pressure pulse expand (isotropy experiment E8).
///
/// `anisotropy` is the normalized fourth-order cubic harmonic
/// |⟨r⁴·cos 4θ⟩| / ⟨r⁴⟩ = |⟨x⁴ − 6x²y² + y⁴⟩| / ⟨r⁴⟩: it survives the
/// 4-fold symmetry of a square-lattice (HPP) spread but vanishes under
/// the 6-fold symmetry of a hexagonal (FHP) one — precisely the
/// distinction that makes FHP, and not HPP, a Navier-Stokes gas.
struct SpreadStats {
  double mean_r2 = 0;      // second moment of particle positions
  double anisotropy = 0;   // fourth-order cubic anisotropy in [0, 1]
  std::int64_t particles = 0;
};

SpreadStats measure_spread(const SiteLattice& lat, const GasModel& model,
                           double cx, double cy);

/// Row-wise x-momentum profile: element y = Σ_x p_x(x, y) in integer
/// momentum units. The shear-decay (viscosity) experiment watches the
/// sinusoidal mode of this profile relax.
std::vector<double> momentum_profile_x(const SiteLattice& lat,
                                       const GasModel& model);

/// Amplitude of the fundamental sine mode of a profile:
/// (2/H)·Σ_y v[y]·sin(2πy/H). For u_x(y) = U·sin(2πy/H) this returns U,
/// and under viscous decay it relaxes as exp(−ν·k²·t).
double sine_mode_amplitude(const std::vector<double>& profile);

}  // namespace lattice::lgca
