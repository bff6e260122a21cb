// The one plane driver, plane_gas_run_tiled, over row units of any
// PlaneUnitKernel. A run is a loop of blocks of kb generations: kb is
// the tiling depth when the run is temporally blocked, and 1 when it
// is not — a band of the plain sweep is a depth-1 tile.

#include "lattice/lgca/temporal_tile.hpp"

#include <algorithm>
#include <barrier>

#include "lattice/common/error.hpp"
#include "lattice/common/thread_pool.hpp"
#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"

namespace lattice::lgca {

namespace {

constexpr int kObstaclePlane = 7;

/// Grain floor for the band scheduler of an untiled run: a band must
/// own at least this many payload words of one plane per generation,
/// or the planner merges bands. 16384 words ≈ 1 Mi sites ≈ hundreds
/// of µs of kernel work per generation — an order of magnitude above
/// a barrier rendezvous, so a band is never synchronization-bound and
/// sub-megasite lattices run single-band regardless of the thread
/// count.
constexpr std::int64_t kBandGrainWords = 16384;

/// Scratch-strip storage base for a tile whose output units are
/// [u0, u1): local unit = global (unwrapped) unit - base. Under
/// Periodic the windows stay unwrapped (wrap happens per unit when
/// resolving content), so the base is simply the widest window's low
/// edge. Under Null the windows clamp to [0, n], and clamping the base
/// into [0, n - scratch_n] makes the strip's own Null boundary coincide
/// with the lattice edge: a clamped tile's read of global unit -1 (or
/// n) lands on local unit -1 (or scratch_n) and resolves to zero,
/// exactly as the golden updater reads it.
std::int64_t scratch_base(std::int64_t u0, std::int64_t kb, std::int64_t n,
                          std::int64_t scratch_n, bool periodic) noexcept {
  const std::int64_t lo = u0 - (kb - 1);
  return periodic ? lo : std::clamp<std::int64_t>(lo, 0, n - scratch_n);
}

/// The trapezoid of one tile (kb >= 2) over row units of
/// kernel.unit_rows() rows: advance output units [u0, u1) of an n-unit
/// lattice by kb generations from the committed `lat` into `next`.
/// Step g (1-based) computes the window [u0 - (kb - g), u1 + (kb - g))
/// — clamped under Null, unwrapped under Periodic — reading `lat` at
/// g == 1 and the scratch strip written one step earlier after that,
/// writing the other strip until the last step writes `next`. Reads
/// only `lat` and the strips, so concurrent tiles never race.
void run_plane_tile(PlaneLattice& next, const PlaneLattice& lat,
                    const PlaneUnitKernel& kernel, std::int64_t t,
                    std::int64_t kb, std::int64_t u0, std::int64_t u1,
                    PlaneLattice* s0, PlaneLattice* s1) {
  const std::int64_t unit = kernel.unit_rows();
  const std::int64_t n = lat.extent().height / unit;
  const bool periodic = lat.boundary() == Boundary::Periodic;
  const std::int64_t scratch_n = s0->extent().height / unit;
  const std::int64_t words = lat.words_per_row();
  const std::uint32_t halo = kernel.halo_planes();
  const std::int64_t base = scratch_base(u0, kb, n, scratch_n, periodic);

  // Every step reads the obstacle plane from its *source* center unit,
  // so the strips must carry it before any intermediate unit is read.
  // It is static for the whole run — copy it once per block. The
  // static-zero planes are zero in the strips by construction:
  // allocation zero-fills and the updates never store planes outside
  // written_planes().
  for (PlaneLattice* s : {s0, s1}) {
    for (std::int64_t lu = 0; lu < scratch_n; ++lu) {
      const std::int64_t gu = periodic ? wrap(base + lu, n) : base + lu;
      for (std::int64_t r = 0; r < unit; ++r) {
        const std::uint64_t* src = lat.row(kObstaclePlane, gu * unit + r);
        std::copy(src, src + words, s->row(kObstaclePlane, lu * unit + r));
      }
    }
  }

  PlaneLattice* const strips[2] = {s0, s1};
  for (std::int64_t g = 1; g <= kb; ++g) {
    std::int64_t lo = u0 - (kb - g);
    std::int64_t hi = u1 + (kb - g);
    if (!periodic) {
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min(hi, n);
    }
    const PlaneLattice& cur = g == 1 ? lat : *strips[(g - 1) & 1];
    PlaneLattice& dst = g == kb ? next : *strips[g & 1];
    for (std::int64_t gu = lo; gu < hi; ++gu) {
      const std::int64_t sem_u = periodic ? wrap(gu, n) : gu;
      const std::int64_t src_u = g == 1 ? sem_u : gu - base;
      const std::int64_t dst_u = g == kb ? gu : gu - base;
      kernel.update_unit_window(dst, dst_u, cur, src_u, sem_u, t + g - 1);
      if (g < kb) {
        dst.prepare_shift_halo(halo, dst_u * unit, (dst_u + 1) * unit);
      }
    }
  }
  // Leave the committed units halo-ready, as update_units does.
  next.prepare_shift_halo(halo, u0 * unit, u1 * unit);
}

/// Balanced contiguous tile range for one lane: never an empty range
/// while lanes <= tiles.
struct TileRange {
  std::int64_t lo;
  std::int64_t hi;
};
TileRange lane_tiles(std::int64_t tiles, unsigned lanes,
                     unsigned lane) noexcept {
  return {tiles * lane / lanes, tiles * (lane + 1) / lanes};
}

/// Band count for an untiled run over `units` row units: never more
/// bands than requested threads, units, or pool lanes — and never a
/// band owning less than kBandGrainWords payload words of one plane per
/// generation. The grain floor is what keeps thread scaling monotone:
/// for kernels this cheap (a few word ops per 64 sites), a band below
/// it costs more in rendezvous than its update, so small lattices
/// collapse to fewer bands (down to one, which runs inline with zero
/// pool traffic).
std::int64_t plan_bands(std::int64_t units, std::int64_t work,
                        unsigned threads) {
  std::int64_t bands = std::min<std::int64_t>(threads, units);
  bands = std::min(bands, std::max<std::int64_t>(1, work / kBandGrainWords));
  bands = std::min(bands, static_cast<std::int64_t>(
                              common::ThreadPool::shared().max_lanes()));
  return std::max<std::int64_t>(1, bands);
}

/// How a run splits an n-unit lattice: blocks of `depth` generations,
/// `tiles` tiles of `tile_units` units (the last one may be short), and
/// the pool lanes the tiles spread over as balanced contiguous ranges.
struct RunGeometry {
  std::int64_t depth;
  std::int64_t tiles;
  std::int64_t tile_units;
  unsigned lanes;
};

/// A feasible tiling keeps its depth; a depth-1 tiling with tile_rows
/// set runs bands of tile_rows units (how tests force multi-band runs
/// on small lattices — engine plans never carry tile_rows at depth 1).
/// Both spread their tiles over min(threads, tiles, pool lanes) lanes
/// with no grain floor. Every other run — an infeasible depth, a
/// one-generation pass — is the band planner's, one tile per lane.
/// Tiles are evened out to ceil(n / tiles) units each (the last one
/// would otherwise take the remainder).
RunGeometry run_geometry(std::int64_t units, std::int64_t work,
                         const TemporalTiling& tiling, bool tiled,
                         unsigned threads) {
  if (tiled || (tiling.depth <= 1 && tiling.tile_rows > 0)) {
    const std::int64_t tiles =
        (units + tiling.tile_rows - 1) / tiling.tile_rows;
    const auto lanes = static_cast<unsigned>(std::min<std::int64_t>(
        std::min<std::int64_t>(threads, tiles),
        common::ThreadPool::shared().max_lanes()));
    return {tiled ? tiling.depth : 1, tiles, (units + tiles - 1) / tiles,
            lanes};
  }
  const std::int64_t bands = plan_bands(units, work, threads);
  return {1, bands, (units + bands - 1) / bands,
          static_cast<unsigned>(bands)};
}

/// The bitplane.* metric ids of the plane driver, 2-D and 3-D alike.
struct BitplaneObs {
  obs::MetricsRegistry::Id sites = obs::counter_id("bitplane.sites");
  obs::MetricsRegistry::Id words = obs::counter_id("bitplane.words");
  obs::MetricsRegistry::Id band_ns = obs::histogram_id("bitplane.band_ns");
  obs::MetricsRegistry::Id bands = obs::gauge_id("bitplane.bands");
  obs::MetricsRegistry::Id tile_ns = obs::histogram_id("bitplane.tile_ns");
  obs::MetricsRegistry::Id depth = obs::gauge_id("bitplane.tile_depth");
  obs::MetricsRegistry::Id tiles = obs::gauge_id("bitplane.tiles");
  obs::MetricsRegistry::Id pack = obs::histogram_id("bitplane.pack_ns");
  obs::MetricsRegistry::Id update = obs::histogram_id("bitplane.update_ns");
  obs::MetricsRegistry::Id unpack = obs::histogram_id("bitplane.unpack_ns");
  static const BitplaneObs& get() {
    static const BitplaneObs ids;
    return ids;
  }
};

/// Run-level counters: sites, and plane words per generation — the
/// capacity measure of the sweep (all 8 planes × rows × words/row).
/// Actual memory traffic is lower: only written_planes() are stored,
/// and static planes are never re-read in full (the obstacle mask is
/// read word-by-word, the static-zero planes not at all).
void count_run(const PlaneLattice& lat, std::int64_t generations) {
  const BitplaneObs& ids = BitplaneObs::get();
  const Extent e = lat.extent();
  obs::count(ids.sites, e.area() * generations);
  obs::count(ids.words, generations * e.height * lat.words_per_row() *
                            PlaneLattice::kPlanes);
}

/// Shape checks shared by every driver entry; false when there is
/// nothing to run.
bool check_run(const PlaneLattice& lat, const PlaneUnitKernel& kernel,
               std::int64_t generations, unsigned threads) {
  LATTICE_REQUIRE(threads >= 1, "need at least one worker thread");
  LATTICE_REQUIRE(generations >= 0, "generations must be >= 0");
  const Extent e = lat.extent();
  const std::int64_t unit = kernel.unit_rows();
  LATTICE_ASSERT(unit >= 1 && e.height % unit == 0,
                 "plane_gas_run: height is not a whole number of units");
  return e.area() != 0 && generations != 0;
}

}  // namespace

void plane_gas_run(PlaneLattice& lat, const PlaneUnitKernel& kernel,
                   std::int64_t generations, std::int64_t t0,
                   unsigned threads) {
  plane_gas_run_tiled(lat, kernel, generations, t0, threads, {});
}

bool temporal_tiling_feasible(const TemporalTiling& tiling, Extent extent,
                              Boundary boundary) {
  const std::int64_t k = tiling.depth;
  const std::int64_t r = tiling.tile_rows;
  if (k < 2 || r < k) return false;
  const std::int64_t h = extent.height;
  if (h <= 0 || extent.width <= 0) return false;
  if ((h + r - 1) / r < 2) return false;
  const std::int64_t scratch_h = r + 2 * (k - 1);
  if (boundary != Boundary::Periodic && scratch_h > h) return false;
  return true;
}

void plane_gas_run_tiled(PlaneLattice& lat, const PlaneUnitKernel& kernel,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling,
                         PlaneRunHooks* hooks) {
  if (!check_run(lat, kernel, generations, threads)) return;
  PlaneLattice next(lat.extent(), lat.boundary());
  plane_gas_run_tiled(lat, next, kernel, generations, t0, threads, tiling,
                      hooks);
}

void plane_gas_run_tiled(PlaneLattice& lat, PlaneLattice& next,
                         const PlaneUnitKernel& kernel,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling,
                         PlaneRunHooks* hooks) {
  if (!check_run(lat, kernel, generations, threads)) return;
  LATTICE_REQUIRE(next.extent() == lat.extent() &&
                      next.boundary() == lat.boundary(),
                  "plane_gas_run_tiled: the double buffer's shape differs");
  const Extent e = lat.extent();
  const std::int64_t unit = kernel.unit_rows();
  const std::int64_t units = e.height / unit;
  const bool tiled =
      generations >= 2 &&
      temporal_tiling_feasible(tiling, {e.width, units}, lat.boundary());
  const RunGeometry geo = run_geometry(units, e.height * lat.words_per_row(),
                                       tiling, tiled, threads);

  // Every run sets all three gauges, so a snapshot never reports the
  // shape of an earlier run. An untiled lane's units are one tile.
  const BitplaneObs& ids = BitplaneObs::get();
  obs::gauge_set(ids.bands, geo.lanes);
  obs::gauge_set(ids.tiles, tiled ? geo.tiles : geo.lanes);
  obs::gauge_set(ids.depth, geo.depth);

  // One-time run setup: static planes primed in both buffers (the
  // spans only store the dynamic planes), then one halo fill of the
  // generation-0 source for just the shifted planes. Every later
  // generation's halo is written by the updates themselves, lane-
  // locally.
  kernel.prime_static_planes(lat, next);
  lat.prepare_shift_halo(kernel.halo_planes(), 0, e.height);
  if (hooks != nullptr) {
    hooks->run_begin(lat, kernel.written_planes(), kernel.halo_planes(), t0);
  }

  // Each lane owns one static, contiguous range of tiles for the whole
  // run (a band's rows stay in that core's cache across blocks; in 3-D
  // the bands are z-slabs and their faces are exactly the sliced 3-D
  // SPA's inter-slice channels in software). Tiles of one block are
  // independent, so the only rendezvous per block is `end_block`,
  // whose completion swaps the buffers. At kb == 1 the lane's units
  // are one contiguous range and take one update_units call (which
  // keeps PlaneKernel's column tiling and needs no scratch). Hooks run
  // per lane over the lane's own rows: before_rows on the committed
  // source, then — with two or more lanes — `hook_sync`, because a
  // lane gathers its neighbors' edge rows (or a tile's skirt rows),
  // which must not still be under injection; after_rows on what the
  // lane produced. The fault-free path never touches `hook_sync`.
  const auto run_lane = [&](unsigned lane, std::barrier<>* hook_sync,
                            const auto& end_block) {
    const TileRange range = lane_tiles(geo.tiles, geo.lanes, lane);
    const std::int64_t u0 = std::min(units, range.lo * geo.tile_units);
    const std::int64_t u1 = std::min(units, range.hi * geo.tile_units);
    PlaneLattice s0;
    PlaneLattice s1;
    if (geo.depth > 1) {
      // Two ping-pong strips of tile_rows + 2(depth - 1) units.
      const Extent strip{e.width,
                         (tiling.tile_rows + 2 * (geo.depth - 1)) * unit};
      s0 = PlaneLattice(strip, lat.boundary());
      s1 = PlaneLattice(strip, lat.boundary());
    }
    std::int64_t done = 0;
    while (done < generations) {
      const std::int64_t kb = std::min(geo.depth, generations - done);
      const std::int64_t t = t0 + done;
      if (hooks != nullptr) {
        hooks->before_rows(lat, t, u0 * unit, u1 * unit);
        if (hook_sync != nullptr) hook_sync->arrive_and_wait();
      }
      if (kb == 1) {
        const obs::ScopedTimer timer(ids.band_ns);
        kernel.update_units(next, lat, t, u0, u1);
      } else {
        for (std::int64_t tile = range.lo; tile < range.hi; ++tile) {
          const obs::ScopedTimer timer(ids.tile_ns);
          run_plane_tile(next, lat, kernel, t, kb, tile * geo.tile_units,
                         std::min(units, (tile + 1) * geo.tile_units), &s0,
                         &s1);
        }
      }
      if (hooks != nullptr) {
        hooks->after_rows(next, t + kb - 1, u0 * unit, u1 * unit);
      }
      end_block();
      done += kb;
    }
  };

  if (geo.lanes == 1) {
    // Inline: no pool traffic and no barrier. This is also where the
    // band planner lands whenever the per-generation work is below the
    // grain floor — the fix for fan-out overhead inverting thread
    // scaling.
    run_lane(0, nullptr, [&] { std::swap(lat, next); });
  } else {
    std::barrier sync(static_cast<std::ptrdiff_t>(geo.lanes),
                      [&]() noexcept { std::swap(lat, next); });
    std::barrier<> hook_sync(static_cast<std::ptrdiff_t>(geo.lanes));
    common::ThreadPool::shared().run_lanes(geo.lanes, [&](unsigned lane) {
      run_lane(lane, &hook_sync, [&] { sync.arrive_and_wait(); });
    });
  }
  count_run(lat, generations);
}

void bitplane_gas_run(SiteLattice& lat, const PlaneUnitKernel& kernel,
                      std::int64_t generations, std::int64_t t0,
                      unsigned threads, const TemporalTiling& tiling,
                      PlaneRunHooks* hooks) {
  const BitplaneObs& ids = BitplaneObs::get();
  PlaneLattice planes;
  {
    const obs::ScopedTimer pack_timer(ids.pack);
    const obs::TraceSpan pack_span("bitplane.pack");
    planes = PlaneLattice(lat.extent(), lat.boundary());
    planes.pack(lat, threads);
  }

  {
    const obs::ScopedTimer update_timer(ids.update);
    const obs::TraceSpan update_span("bitplane.update");
    plane_gas_run_tiled(planes, kernel, generations, t0, threads, tiling,
                        hooks);
  }

  const obs::ScopedTimer unpack_timer(ids.unpack);
  const obs::TraceSpan unpack_span("bitplane.unpack");
  planes.unpack(lat, threads);
}

}  // namespace lattice::lgca
