// Temporal (trapezoidal) tiling of the lattice-gas update.
//
// The paper's §7 argument (Theorem 4) is that streaming the lattice
// through the processor once per generation pins the update rate at
// R = B — one update per memory word moved — while a schedule that
// keeps an S-site working set resident and advances it several
// generations before writing back can reach R = O(B·S^(1/d)). This
// header is that schedule in software: split the lattice into row
// tiles sized to the cache, and for each tile compute `depth`
// generations before touching the next one, so the tile's rows are
// read from and written to main memory once per `depth` generations
// instead of once per generation.
//
// The shape of one tile is a trapezoid in (y, t): to produce output
// rows [y0, y1) at generation t+k from committed generation-t state,
// step g (1-based) computes the shrinking window
//   [y0 - (k - g), y1 + (k - g))      (clamped to the lattice under a
//                                      Null boundary, unwrapped under
//                                      Periodic)
// so every row a later step reads was produced one step earlier in the
// same tile. The (k-1)-row skirts overlap the neighboring tiles'
// trapezoids and are recomputed redundantly — the classic overlapped
// "ghost zone" scheme — which makes tiles fully *independent*: any
// tile order, any tile-to-thread assignment, and any thread count give
// bit-identical results, because every tile reads only the committed
// generation-t lattice plus its own intermediates. The recompute tax
// is (depth-1)/tile_rows of the useful row updates (the planner keeps
// it under ~12%); what it buys is the Theorem 4 reuse factor.
//
// Intermediate generations live in two per-worker scratch strips of
// tile_rows + 2(depth-1) rows that ping-pong between steps; only the
// final step writes the real double buffer. Correctness of the
// windowed update (storage row vs semantic row, hex parity, chirality
// hash, boundary resolution) is documented on
// PlaneUnitKernel::update_unit_window. Everything here is
// bit-identical to the untiled sweep for every (gas, boundary, SIMD
// level, thread count, depth) — by the induction above, and by the
// tile-seam sweep in tests/test_temporal_tile.cpp.
//
// There is one plane driver, plane_gas_run_tiled: the untiled sweep is
// its depth-1 case, in which a band is a tile one generation deep and
// needs no scratch strips. It is dimension-generic: it tiles in row
// units (see PlaneUnitKernel), so "row" above reads "z-slab" for the
// 3-D gas — the same Theorem 4 schedule at d = 3, R = O(B·S^(1/3)).
// Only the bit-plane backends tile. The byte-LUT sweep is compute-bound
// (a table read per site), so it has nothing for the reuse factor to
// buy and runs the plain fused_gas_run.

#pragma once

#include <cstdint>

#include "lattice/lgca/plane_kernel.hpp"

namespace lattice::lgca {

/// One temporal-blocking decision, as consumed by the plane driver.
/// Producing it from a cache model is the job of
/// lattice::core::plan_temporal_tiles (core/tile_plan.hpp); lgca only
/// needs the two numbers.
struct TemporalTiling {
  /// Generations computed per tile visit (k). depth <= 1 means "no
  /// temporal blocking": the driver runs the plain sweep.
  std::int64_t depth = 1;
  /// Output rows per tile at the final step. The scratch strips hold
  /// tile_rows + 2*(depth-1) rows each. At depth <= 1 a positive value
  /// sets the band height of the plain sweep instead of the grain-floor
  /// band planner (tests use it to force multi-band runs on small
  /// lattices; the engine's plans carry 0 at depth 1).
  std::int64_t tile_rows = 0;
};

/// Whether the driver would actually tile this run: depth >= 2,
/// tile_rows >= depth (keeps the recompute tax below 100%), at least
/// two tiles (one tile means the lattice already fits the budget — the
/// plain sweep is strictly better), and, under a Null boundary, a
/// scratch strip no taller than the lattice (so a strip clamps at most
/// one lattice edge). The driver runs the plain sweep when this is
/// false, so callers may pass any TemporalTiling.
bool temporal_tiling_feasible(const TemporalTiling& tiling, Extent extent,
                              Boundary boundary);

/// The plane driver: advance `lat` by `generations` steps of `kernel`,
/// in blocks of kb generations. When the run has >= 2 generations and
/// the tiling is feasible over the {width, height / unit_rows} unit
/// extent, kb = tiling.depth and each block computes cache-resident
/// trapezoidal tiles of tiling.tile_rows row units (rows in 2-D,
/// z-slabs in 3-D); the tiles spread over up to `threads` pool lanes.
/// Otherwise kb = 1: the plain sweep, in bands of tiling.tile_rows
/// units when depth <= 1 sets it, else in up to `threads` bands that
/// the grain floor may merge (down to one inline band). Each lane owns
/// a contiguous range of tiles for the whole run; one barrier per
/// block swaps the buffers. `hooks` fire per lane per block over the
/// lane's own rows (see PlaneRunHooks) — before_rows on the committed
/// generation-t state, after_rows on the produced generation-(t+kb)
/// rows — so fault injection strikes the DRAM-resident committed state
/// while cache-resident intermediates stay clean, and a detected fault
/// still rolls the whole block back. Bit-identical to the kernel's
/// golden updater for any tiling, thread count and SIMD level.
void plane_gas_run_tiled(PlaneLattice& lat, const PlaneUnitKernel& kernel,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling,
                         PlaneRunHooks* hooks = nullptr);

/// plane_gas_run_tiled over a caller-owned double buffer: `next` has
/// lat's extent and boundary, and its contents are scratch. On return
/// `lat` holds the result (the two may have exchanged storage). A
/// caller that keeps its state resident in planes (the engine's
/// bit-plane executor) passes the same pair to every run instead of
/// allocating a buffer per call.
void plane_gas_run_tiled(PlaneLattice& lat, PlaneLattice& next,
                         const PlaneUnitKernel& kernel,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling,
                         PlaneRunHooks* hooks = nullptr);

/// Byte-lattice convenience wrapper for every plane kernel: pack once,
/// run plane_gas_run_tiled (the plain sweep under the default, untiled
/// `tiling`), unpack once. A 3-D kernel takes the flat {nx, ny·nz} byte
/// view. The transpose costs ~one byte-path generation, so it
/// amortizes over multi-generation runs.
void bitplane_gas_run(SiteLattice& lat, const PlaneUnitKernel& kernel,
                      std::int64_t generations, std::int64_t t0 = 0,
                      unsigned threads = 1, const TemporalTiling& tiling = {},
                      PlaneRunHooks* hooks = nullptr);

}  // namespace lattice::lgca
