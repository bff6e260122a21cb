// Private helpers that let the dimension-blind engine layers carry a
// 3-D volume — the engine's state stays a flat {nx, ny·nz} SiteLattice
// (byte-compatible with lgca3d::Lattice3's raster) — and the one place
// that picks a config's golden updater, which every replay path (the
// reference executor, the oracle fallback, verify_against_reference)
// goes through.

#pragma once

#include <cstdint>

#include "lattice/core/engine.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"

namespace lattice::core::detail {

/// The semantic {nx, ny, nz} box of a 3-D engine config.
lgca3d::Extent3 extent3_of(const LatticeEngine::Config& config);

/// Advance `state` by `generations` steps from t0 on the golden
/// updater for `config`: lgca::reference_run of `rule` in 2-D; in 3-D
/// the cubic gas's gather-and-collide updater stepping the flat view
/// itself (lgca3d::reference_step over raw storage — exact, the rasters
/// coincide).
void golden_run(const LatticeEngine::Config& config, const lgca::Rule& rule,
                lgca::SiteLattice& state, std::int64_t generations,
                std::int64_t t0);

}  // namespace lattice::core::detail
