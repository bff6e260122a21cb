// Lattice initializers and obstacle geometry.

#pragma once

#include <cstdint>
#include <functional>

#include "lattice/common/rng.hpp"
#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/lattice.hpp"

namespace lattice::lgca {

/// The row engine behind the random fillers (these and lgca3d's):
/// `rows` rows of `row_sites` sites draw from one Pcg32(seed) stream in
/// row order. Row y takes row_draws(y) values, and fill_row(rng, y)
/// must consume exactly that many. A fill of at least 65536 sites runs
/// contiguous row chunks on the shared pool, each from the stream
/// advanced past every draw before it (Pcg32::advance), so its bytes
/// equal the serial loop's for any pool size; a smaller one is the
/// serial loop, inline.
void fill_rows(std::uint64_t seed, std::int64_t rows, std::int64_t row_sites,
               const std::function<std::uint64_t(std::int64_t)>& row_draws,
               const std::function<void(Pcg32&, std::int64_t)>& fill_row);

/// Fill non-obstacle sites with independent particles: each moving
/// channel occupied with probability `density`; the rest channel (if the
/// model has one) with probability `rest_density`.
void fill_random(SiteLattice& lat, const GasModel& model, double density,
                 std::uint64_t seed, double rest_density = 0.0);

/// Like fill_random but biased to produce net flow in +x: channels with
/// positive x-momentum are occupied with `density + bias`, negative with
/// `density - bias` (clamped to [0,1]).
void fill_flow(SiteLattice& lat, const GasModel& model, double density,
               double bias, std::uint64_t seed);

/// Sinusoidal shear profile: like fill_flow but with the x-bias varying
/// as bias·sin(2πy/H) across rows — the initial condition of the
/// viscous shear-decay experiment.
void fill_shear(SiteLattice& lat, const GasModel& model, double density,
                double bias, std::uint64_t seed);

/// Mark a filled rectangle of sites as obstacles (clears particles).
void add_obstacle_rect(SiteLattice& lat, Coord lo, Coord hi);

/// Mark a disk of obstacles centered at (cx, cy) with radius r.
void add_obstacle_disk(SiteLattice& lat, double cx, double cy, double r);

/// Obstacle walls along the top and bottom rows (a channel).
void add_channel_walls(SiteLattice& lat);

/// Place a tight momentum pulse: a `w`×`w` block around the center of
/// the lattice with all moving channels occupied (maximum pressure,
/// zero net momentum). Used for the isotropy experiment.
void add_pressure_pulse(SiteLattice& lat, const GasModel& model,
                        std::int64_t w);

}  // namespace lattice::lgca
