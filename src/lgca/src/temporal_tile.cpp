// The plane drivers — banded plane_gas_run and trapezoid-tiled
// plane_gas_run_tiled, over row units of any PlaneUnitKernel — plus
// the byte-LUT tiled driver, which walks the same trapezoid.

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

std::int64_t clamp64(std::int64_t v, std::int64_t lo,
                     std::int64_t hi) noexcept {
  return std::max(lo, std::min(hi, v));
}

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
  return periodic ? lo : clamp64(lo, 0, n - scratch_n);
}

/// The trapezoid of one tile, shared by the plane and byte drivers:
/// advance output units [u0, u1) of an n-unit lattice by kb
/// generations from the committed `lat` into `next`. Step g (1-based)
/// computes the window [u0 - (kb - g), u1 + (kb - g)) — clamped under
/// Null, unwrapped under Periodic — reading `lat` at g == 1 and the
/// scratch strip written one step earlier after that, writing the
/// other strip until the last step writes `next`. `step` computes one
/// unit: step(dst, dst_u, cur, src_u, sem_u, g). Reads only `lat` and
/// the strips, so concurrent tiles never race.
template <typename Lattice, typename Step>
void run_trapezoid(Lattice& next, const Lattice& lat, Lattice* s0, Lattice* s1,
                   std::int64_t n, std::int64_t base, std::int64_t kb,
                   std::int64_t u0, std::int64_t u1, const Step& step) {
  const bool periodic = lat.boundary() == Boundary::Periodic;
  Lattice* const strips[2] = {s0, s1};
  for (std::int64_t g = 1; g <= kb; ++g) {
    std::int64_t lo = u0 - (kb - g);
    std::int64_t hi = u1 + (kb - g);
    if (!periodic) {
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min(hi, n);
    }
    const Lattice& cur = g == 1 ? lat : *strips[(g - 1) & 1];
    Lattice& dst = g == kb ? next : *strips[g & 1];
    for (std::int64_t gu = lo; gu < hi; ++gu) {
      const std::int64_t sem = periodic ? wrap(gu, n) : gu;
      const std::int64_t src_u = g == 1 ? sem : gu - base;
      const std::int64_t dst_u = g == kb ? gu : gu - base;
      step(dst, dst_u, cur, src_u, sem, g);
    }
  }
}

/// One plane trapezoid over row units of kernel.unit_rows() rows.
void run_plane_tile(PlaneLattice& next, const PlaneLattice& lat,
                    const PlaneUnitKernel& kernel, std::int64_t t,
                    std::int64_t kb, std::int64_t u0, std::int64_t u1,
                    PlaneLattice* s0, PlaneLattice* s1) {
  if (kb == 1) {
    kernel.update_units(next, lat, t, u0, u1);
    return;
  }
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

  const auto step = [&](PlaneLattice& dst, std::int64_t dst_u,
                        const PlaneLattice& cur, std::int64_t src_u,
                        std::int64_t sem_u, std::int64_t g) {
    kernel.update_unit_window(dst, dst_u, cur, src_u, sem_u, t + g - 1);
    if (g < kb) {
      dst.prepare_shift_halo(halo, dst_u * unit, (dst_u + 1) * unit);
    }
  };
  run_trapezoid(next, lat, s0, s1, n, base, kb, u0, u1, step);
  // Leave the committed units halo-ready, as update_units does.
  next.prepare_shift_halo(halo, u0 * unit, u1 * unit);
}

/// Byte-path trapezoid: the same schedule over SiteLattice strips, one
/// row per unit. No obstacle copy and no halo upkeep — the collide
/// table preserves the obstacle/rest bits of every produced row, and
/// the byte spans resolve row/column edges per site.
void run_byte_tile(SiteLattice& next, const SiteLattice& lat,
                   const CollisionLut& lut, std::int64_t t, std::int64_t kb,
                   std::int64_t y0, std::int64_t y1, SiteLattice* s0,
                   SiteLattice* s1) {
  if (kb == 1) {
    lut.update_rows(next, lat, t, y0, y1);
    return;
  }
  const std::int64_t h = lat.extent().height;
  const bool periodic = lat.boundary() == Boundary::Periodic;
  const std::int64_t base =
      scratch_base(y0, kb, h, s0->extent().height, periodic);
  const auto step = [&](SiteLattice& dst, std::int64_t dst_y,
                        const SiteLattice& cur, std::int64_t src_y,
                        std::int64_t sem_y, std::int64_t g) {
    lut.update_span_window(dst, dst_y, cur, src_y, sem_y, t + g - 1);
  };
  run_trapezoid(next, lat, s0, s1, h, base, kb, y0, y1, step);
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

/// How a feasible tiling splits an n-unit lattice: tiles evened out to
/// ceil(n / tiles) units each (the last one would otherwise take the
/// remainder), scratch strips of tile_rows + 2(depth - 1) units, and
/// the pool lanes the tiles spread over.
struct TileGeometry {
  std::int64_t tiles;
  std::int64_t tile_units;
  std::int64_t scratch_units;
  unsigned lanes;
};
TileGeometry tile_geometry(std::int64_t n, const TemporalTiling& tiling,
                           unsigned threads) {
  const std::int64_t tiles = (n + tiling.tile_rows - 1) / tiling.tile_rows;
  const unsigned lanes = static_cast<unsigned>(std::min<std::int64_t>(
      std::min<std::int64_t>(threads, tiles),
      common::ThreadPool::shared().max_lanes()));
  return {tiles, (n + tiles - 1) / tiles,
          tiling.tile_rows + 2 * (tiling.depth - 1), lanes};
}

/// Band count for a banded run over `units` row units: never more
/// bands than requested threads, units, or pool lanes — and never a
/// band owning less than `grain` payload words of one plane per
/// generation. The grain floor is what keeps thread scaling monotone:
/// for kernels this cheap (a few word ops per 64 sites), a band below
/// it costs more in rendezvous than its update, so small lattices
/// collapse to fewer bands (down to one, which runs inline with zero
/// pool traffic).
std::int64_t plan_bands(std::int64_t units, std::int64_t work, unsigned threads,
                        std::int64_t grain) {
  std::int64_t bands = std::min<std::int64_t>(threads, units);
  bands = std::min(bands, std::max<std::int64_t>(1, work / grain));
  bands = std::min(bands, static_cast<std::int64_t>(
                              common::ThreadPool::shared().max_lanes()));
  return std::max<std::int64_t>(1, bands);
}

/// The bitplane.* metric ids of every plane driver, 2-D and 3-D alike.
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

/// The banded sweep over a caller-owned double buffer.
void banded_run(PlaneLattice& lat, PlaneLattice& next,
                const PlaneUnitKernel& kernel, std::int64_t generations,
                std::int64_t t0, unsigned threads,
                std::int64_t band_grain_words, PlaneRunHooks* hooks) {
  const Extent e = lat.extent();
  const std::int64_t unit = kernel.unit_rows();
  const std::int64_t units = e.height / unit;
  const std::int64_t grain =
      band_grain_words > 0 ? band_grain_words : kDefaultBandGrainWords;
  const std::int64_t bands =
      plan_bands(units, e.height * lat.words_per_row(), threads, grain);

  const BitplaneObs& ids = BitplaneObs::get();
  obs::gauge_set(ids.bands, bands);

  // One-time run setup: static planes primed in both buffers (the
  // spans only store the dynamic planes), then one halo fill of the
  // generation-0 source for just the shifted planes. Every later
  // generation's halo is written by update_units itself, band-locally.
  kernel.prime_static_planes(lat, next);
  lat.prepare_shift_halo(kernel.halo_planes(), 0, e.height);
  if (hooks != nullptr) {
    hooks->run_begin(lat, kernel.written_planes(), kernel.halo_planes(), t0);
  }
  if (bands == 1) {
    // Inline path: no pool traffic at all. This is also where the band
    // planner lands whenever the per-generation work is below the grain
    // floor — the fix for fan-out overhead inverting thread scaling.
    for (std::int64_t g = 0; g < generations; ++g) {
      if (hooks != nullptr) hooks->before_rows(lat, t0 + g, 0, e.height);
      {
        const obs::ScopedTimer timer(ids.band_ns);
        kernel.update_units(next, lat, t0 + g, 0, units);
      }
      if (hooks != nullptr) hooks->after_rows(next, t0 + g, 0, e.height);
      std::swap(lat, next);
    }
  } else {
    // Banded path: each of `bands` pool lanes owns one static,
    // contiguous band of units for the lifetime of the run (cache-
    // resident tiles — a band's rows stay in that core's cache across
    // generations). One std::barrier per generation; with halos written
    // by each band as it produces its units, the serial completion step
    // is just the buffer swap. With hooks attached, a second barrier
    // separates the (mutating) before_rows phase from the update sweep
    // — a band gathers its neighbors' edge rows, which must not still
    // be under injection; the fault-free path never touches it. In 3-D
    // the bands are z-slabs and their faces are exactly the sliced 3-D
    // SPA's inter-slice channels in software.
    std::barrier sync(static_cast<std::ptrdiff_t>(bands),
                      [&]() noexcept { std::swap(lat, next); });
    std::barrier<> inject_sync(static_cast<std::ptrdiff_t>(bands));
    const std::int64_t units_per = (units + bands - 1) / bands;
    common::ThreadPool::shared().run_lanes(
        static_cast<unsigned>(bands), [&](unsigned lane) {
          const std::int64_t u0 = static_cast<std::int64_t>(lane) * units_per;
          const std::int64_t u1 = std::min(units, u0 + units_per);
          for (std::int64_t g = 0; g < generations; ++g) {
            if (hooks != nullptr) {
              hooks->before_rows(lat, t0 + g, u0 * unit, u1 * unit);
              inject_sync.arrive_and_wait();
            }
            {
              const obs::ScopedTimer timer(ids.band_ns);
              kernel.update_units(next, lat, t0 + g, u0, u1);
            }
            if (hooks != nullptr) {
              hooks->after_rows(next, t0 + g, u0 * unit, u1 * unit);
            }
            sync.arrive_and_wait();
          }
        });
  }
  count_run(lat, generations);
}

}  // namespace

void plane_gas_run(PlaneLattice& lat, const PlaneUnitKernel& kernel,
                   std::int64_t generations, std::int64_t t0,
                   unsigned threads, std::int64_t band_grain_words,
                   PlaneRunHooks* hooks) {
  if (!check_run(lat, kernel, generations, threads)) return;
  PlaneLattice next(lat.extent(), lat.boundary());
  banded_run(lat, next, kernel, generations, t0, threads, band_grain_words,
             hooks);
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
  if (generations < 2 ||
      !temporal_tiling_feasible(tiling, {e.width, units}, lat.boundary())) {
    banded_run(lat, next, kernel, generations, t0, threads, 0, hooks);
    return;
  }
  const std::int64_t k = tiling.depth;
  const TileGeometry geo = tile_geometry(units, tiling, threads);
  const Extent scratch_extent{e.width, geo.scratch_units * unit};

  const BitplaneObs& ids = BitplaneObs::get();
  obs::gauge_set(ids.depth, k);
  obs::gauge_set(ids.tiles, geo.tiles);

  kernel.prime_static_planes(lat, next);
  lat.prepare_shift_halo(kernel.halo_planes(), 0, e.height);
  if (hooks != nullptr) {
    hooks->run_begin(lat, kernel.written_planes(), kernel.halo_planes(), t0);
  }
  const auto run_block = [&](std::int64_t t, std::int64_t kb, TileRange range,
                             PlaneLattice* s0, PlaneLattice* s1) {
    for (std::int64_t tile = range.lo; tile < range.hi; ++tile) {
      const obs::ScopedTimer timer(ids.tile_ns);
      const std::int64_t u0 = tile * geo.tile_units;
      const std::int64_t u1 = std::min(units, u0 + geo.tile_units);
      run_plane_tile(next, lat, kernel, t, kb, u0, u1, s0, s1);
    }
  };

  if (geo.lanes <= 1) {
    PlaneLattice s0(scratch_extent, lat.boundary());
    PlaneLattice s1(scratch_extent, lat.boundary());
    std::int64_t done = 0;
    while (done < generations) {
      const std::int64_t kb = std::min(k, generations - done);
      const std::int64_t t = t0 + done;
      if (hooks != nullptr) hooks->before_rows(lat, t, 0, e.height);
      run_block(t, kb, {0, geo.tiles}, &s0, &s1);
      if (hooks != nullptr) hooks->after_rows(next, t + kb - 1, 0, e.height);
      std::swap(lat, next);
      done += kb;
    }
  } else {
    // Tiles of one block are independent, so lanes own balanced
    // contiguous tile ranges with a single barrier per *block* (the
    // plain runner pays one per generation). With hooks attached, a
    // pre/post rendezvous brackets each block so lane 0 can run the
    // serial inject/audit over the full committed lattice while no
    // lane is reading it.
    std::barrier sync(static_cast<std::ptrdiff_t>(geo.lanes),
                      [&]() noexcept { std::swap(lat, next); });
    std::barrier<> hook_sync(static_cast<std::ptrdiff_t>(geo.lanes));
    common::ThreadPool::shared().run_lanes(geo.lanes, [&](unsigned lane) {
      PlaneLattice s0(scratch_extent, lat.boundary());
      PlaneLattice s1(scratch_extent, lat.boundary());
      const TileRange range = lane_tiles(geo.tiles, geo.lanes, lane);
      std::int64_t done = 0;
      while (done < generations) {
        const std::int64_t kb = std::min(k, generations - done);
        const std::int64_t t = t0 + done;
        if (hooks != nullptr) {
          if (lane == 0) hooks->before_rows(lat, t, 0, e.height);
          hook_sync.arrive_and_wait();
        }
        run_block(t, kb, range, &s0, &s1);
        if (hooks != nullptr) {
          hook_sync.arrive_and_wait();
          if (lane == 0) hooks->after_rows(next, t + kb - 1, 0, e.height);
        }
        sync.arrive_and_wait();
        done += kb;
      }
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

void fused_gas_run_tiled(SiteLattice& lat, const CollisionLut& lut,
                         std::int64_t generations, std::int64_t t0,
                         unsigned threads, const TemporalTiling& tiling) {
  LATTICE_REQUIRE(threads >= 1, "need at least one worker thread");
  LATTICE_REQUIRE(generations >= 0, "generations must be >= 0");
  const Extent e = lat.extent();
  if (e.area() == 0 || generations == 0) return;
  if (generations < 2 ||
      !temporal_tiling_feasible(tiling, e, lat.boundary())) {
    fused_gas_run(lat, lut, generations, t0, threads);
    return;
  }
  const std::int64_t k = tiling.depth;
  const TileGeometry geo = tile_geometry(e.height, tiling, threads);
  const Extent scratch_extent{e.width, geo.scratch_units};

  static const obs::MetricsRegistry::Id sites_id =
      obs::counter_id("reference.sites");
  const obs::TraceSpan span("reference.fused_run_tiled");

  SiteLattice next(e, lat.boundary());
  const auto run_block = [&](std::int64_t t, std::int64_t kb, TileRange range,
                             SiteLattice* s0, SiteLattice* s1) {
    for (std::int64_t tile = range.lo; tile < range.hi; ++tile) {
      const std::int64_t y0 = tile * geo.tile_units;
      const std::int64_t y1 = std::min(e.height, y0 + geo.tile_units);
      run_byte_tile(next, lat, lut, t, kb, y0, y1, s0, s1);
    }
  };

  if (geo.lanes <= 1) {
    SiteLattice s0(scratch_extent, lat.boundary());
    SiteLattice s1(scratch_extent, lat.boundary());
    std::int64_t done = 0;
    while (done < generations) {
      const std::int64_t kb = std::min(k, generations - done);
      run_block(t0 + done, kb, {0, geo.tiles}, &s0, &s1);
      std::swap(lat, next);
      done += kb;
    }
  } else {
    std::barrier sync(static_cast<std::ptrdiff_t>(geo.lanes),
                      [&]() noexcept { std::swap(lat, next); });
    common::ThreadPool::shared().run_lanes(geo.lanes, [&](unsigned lane) {
      SiteLattice s0(scratch_extent, lat.boundary());
      SiteLattice s1(scratch_extent, lat.boundary());
      const TileRange range = lane_tiles(geo.tiles, geo.lanes, lane);
      std::int64_t done = 0;
      while (done < generations) {
        const std::int64_t kb = std::min(k, generations - done);
        run_block(t0 + done, kb, range, &s0, &s1);
        sync.arrive_and_wait();
        done += kb;
      }
    });
  }
  obs::count(sites_id, e.area() * generations);
}

}  // namespace lattice::lgca
