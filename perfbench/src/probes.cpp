// Layer probes for the traced run: each times one module's public
// calls in isolation, at a shape taken from the workload, inside spans.
//
//   lgca    PlaneLattice pack/unpack, bare plane_gas_run[_tiled]
//   lgca3d  PlaneLattice3 pack/unpack, bare plane_gas_run[_tiled]3
//   core    save_checkpoint / load_checkpoint / engine build + restore
//           of a 64² session
//   host    copy bandwidth over arrays >= 4x the LLC, and the Theorem 4
//           ceiling pebble::update_rate_upper at that bandwidth

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "lattice/core/checkpoint_io.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "lattice/lgca3d/plane_lattice3.hpp"
#include "lattice/pebble/bounds.hpp"

namespace perfbench {

namespace {

using namespace lattice;

constexpr int kReps = 3;
/// Site updates per timed kernel repetition (large enough that one
/// repetition is tens of milliseconds at the measured rates).
constexpr double kKernelUpdatesPerRep = 1e8;
/// Computed bytes one streamed generation moves per site in the plane
/// layout: all eight planes read once and written once. Temporal
/// tiling divides it by the tile depth. Cache misses are not counted.
constexpr double kPlaneBytesPerSiteGeneration = 2.0;

std::int64_t kernel_generations(std::int64_t sites, std::int64_t depth,
                                bool tiny) {
  const double target = tiny ? 1e6 : kKernelUpdatesPerRep;
  auto g = static_cast<std::int64_t>(target / static_cast<double>(sites));
  g = std::max<std::int64_t>(g, 2 * depth);
  return (g + depth - 1) / depth * depth;
}

double ns_per_site(std::int64_t ns, std::int64_t sites) {
  return static_cast<double>(ns) / static_cast<double>(sites);
}

struct Kernel2Result {
  double rate = 0;
  std::int64_t depth = 1;
};

Kernel2Result probe_lgca(const Options& opt, const ProbeShape& s, Result& r) {
  const auto gas = static_cast<lgca::GasKind>(s.gas2);
  const Extent extent{s.side2, s.side2};
  const std::int64_t sites = extent.area();
  lgca::SiteLattice lat(extent, lgca::Boundary::Periodic);
  const lgca::GasModel& model = lgca::GasModel::get(gas);
  lgca::fill_random(lat, model, 0.3, mix_seed(opt.seed, 11), 0.1);
  const lgca::Invariants inv0 = lgca::measure_invariants(lat, model);

  lgca::PlaneLattice planes(extent, lgca::Boundary::Periodic);
  lgca::SiteLattice out(extent, lgca::Boundary::Periodic);
  const int reps = opt.tiny ? 2 : kReps;
  const std::int64_t pack = timed_median("lgca.pack", reps, [&] {
    planes.pack(lat);
  });
  const std::int64_t unpack = timed_median("lgca.unpack", reps, [&] {
    planes.unpack(out);
  });
  if (!(out == lat)) r.fail("lgca probe: pack/unpack round trip differs");
  r.add("lgca.pack_ns_per_site", ns_per_site(pack, sites), "ns/site");
  r.add("lgca.unpack_ns_per_site", ns_per_site(unpack, sites), "ns/site");

  const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(gas);
  const core::TilePlan plan = core::plan_temporal_tiles(
      extent, lgca::Boundary::Periodic, core::plane_row_bytes(extent),
      s.tile2);
  const std::int64_t gens = kernel_generations(sites, plan.depth, opt.tiny);
  std::int64_t t = 0;
  const std::int64_t ns = timed_median("lgca.kernel", reps, [&] {
    if (plan.depth > 1) {
      lgca::plane_gas_run_tiled(planes, kernel, gens, t, s.threads,
                                plan.tiling());
    } else {
      lgca::plane_gas_run(planes, kernel, gens, t, s.threads);
    }
    t += gens;
  });
  planes.unpack(out);
  if (!(lgca::measure_invariants(out, model) == inv0)) {
    r.fail("lgca probe: kernel run did not conserve mass and momentum");
  }
  const double rate = static_cast<double>(gens * sites) / (ns * 1e-9);
  r.add("lgca.kernel_sites_per_s", rate, "sites/s");
  r.note("lgca probe: " + std::to_string(s.side2) + "^2 gas " +
         std::to_string(s.gas2) + ", threads " + std::to_string(s.threads) +
         ", tile depth " + std::to_string(plan.depth) + ", " +
         std::to_string(gens) + " generations per rep");
  return {rate, plan.depth};
}

double probe_lgca3d(const Options& opt, const ProbeShape& s, Result& r) {
  const lgca3d::Extent3 e{s.nx3, s.ny3, s.nz3};
  const std::int64_t sites = e.volume();
  lgca3d::Lattice3 vol(e, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(vol, 0.3, mix_seed(opt.seed, 12));
  const lgca3d::Invariants3 inv0 = lgca3d::measure_invariants(vol);
  // The engine's flat {nx, ny*nz} byte view — what BitPlane3 packs.
  lgca::SiteLattice flat(lgca3d::flat_extent(e), lgca::Boundary::Periodic);
  std::memcpy(flat.grid().data(), vol.data(), vol.site_count());
  lgca::SiteLattice out(lgca3d::flat_extent(e), lgca::Boundary::Periodic);

  lgca3d::PlaneLattice3 planes(e, lgca3d::Boundary3::Periodic);
  const int reps = opt.tiny ? 2 : kReps;
  const std::int64_t pack = timed_median("lgca3d.pack", reps, [&] {
    planes.pack(flat);
  });
  const std::int64_t unpack = timed_median("lgca3d.unpack", reps, [&] {
    planes.unpack(out);
  });
  if (!(out == flat)) r.fail("lgca3d probe: pack/unpack round trip differs");
  r.add("lgca3d.pack_ns_per_site", ns_per_site(pack, sites), "ns/site");
  r.add("lgca3d.unpack_ns_per_site", ns_per_site(unpack, sites), "ns/site");

  const core::TilePlan plan = core::plan_temporal_tiles3(
      e, lgca3d::Boundary3::Periodic, /*requested_depth=*/0);
  const std::int64_t gens = kernel_generations(sites, plan.depth, opt.tiny);
  std::int64_t t = 0;
  const std::int64_t ns = timed_median("lgca3d.kernel", reps, [&] {
    if (plan.depth > 1) {
      lgca3d::plane_gas_run_tiled3(planes, gens, t, s.threads,
                                   plan.tiling());
    } else {
      lgca3d::plane_gas_run3(planes, gens, t, s.threads);
    }
    t += gens;
  });
  planes.unpack(vol);
  if (!(lgca3d::measure_invariants(vol) == inv0)) {
    r.fail("lgca3d probe: kernel run did not conserve mass and momentum");
  }
  const double rate = static_cast<double>(gens * sites) / (ns * 1e-9);
  r.add("lgca3d.kernel_sites_per_s", rate, "sites/s");
  r.note("lgca3d probe: " + std::to_string(s.nx3) + "x" +
         std::to_string(s.ny3) + "x" + std::to_string(s.nz3) + ", threads " +
         std::to_string(s.threads) + ", tile depth " +
         std::to_string(plan.depth) + ", " + std::to_string(gens) +
         " generations per rep");
  return rate;
}

/// Durable checkpoint round trip and engine rebuild of one 64² serve
/// session: the work behind every eviction and restore.
void probe_checkpoint(const Options& opt, Result& r) {
  core::LatticeEngine::Config cfg;
  cfg.extent = {64, 64};
  cfg.gas = lgca::GasKind::FHP_II;
  cfg.backend = core::Backend::BitPlane;
  cfg.boundary = lgca::Boundary::Periodic;
  core::LatticeEngine engine(cfg);
  lgca::fill_random(engine.state(), engine.gas_model(), 0.3,
                    mix_seed(opt.seed, 13), 0.1);
  engine.advance(16);
  const core::EngineCheckpoint ckpt = engine.checkpoint();
  const std::string path = opt.tmpdir + "/probe_session.ckpt";
  const int reps = opt.tiny ? 3 : 41;
  core::EngineCheckpoint loaded;
  const std::int64_t save = timed_median("core.ckpt_save", reps, [&] {
    core::save_checkpoint(ckpt, path);
  });
  const std::int64_t load = timed_median("core.ckpt_load", reps, [&] {
    loaded = core::load_checkpoint(path);
  });
  if (!(loaded.state == ckpt.state) || loaded.generation != ckpt.generation) {
    r.fail("checkpoint probe: load_checkpoint differs from what was saved");
  }
  const std::int64_t build = timed_median("core.engine_build", reps, [&] {
    core::LatticeEngine rebuilt(cfg);
    rebuilt.restore(loaded);
  });
  r.add("core.ckpt_save_us", static_cast<double>(save) * 1e-3, "us");
  r.add("core.ckpt_load_us", static_cast<double>(load) * 1e-3, "us");
  r.add("core.engine_build_us", static_cast<double>(build) * 1e-3, "us");
}

/// Copy bandwidth with nproc threads over two arrays each at least 4x
/// the last-level cache. Counts bytes read plus bytes written.
double probe_host(const Options& opt, int dim, Result& r) {
  const std::int64_t llc = llc_bytes();
  const std::int64_t bytes =
      opt.tiny ? std::int64_t{16} << 20
               : std::max<std::int64_t>(4 * llc, std::int64_t{64} << 20);
  const auto n = static_cast<std::size_t>(bytes);
  std::unique_ptr<char[]> src(new char[n]);
  std::unique_ptr<char[]> dst(new char[n]);
  const unsigned lanes = nproc();
  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (unsigned l = 0; l < lanes; ++l) {
      const std::size_t lo = n * l / lanes;
      const std::size_t hi = n * (l + 1) / lanes;
      ts.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (std::thread& t : ts) t.join();
  };
  // First touch on the threads that copy.
  parallel([&](std::size_t lo, std::size_t hi) {
    std::memset(src.get() + lo, 1, hi - lo);
    std::memset(dst.get() + lo, 0, hi - lo);
  });
  const std::int64_t ns = timed_median("host.copy", opt.tiny ? 2 : 5, [&] {
    parallel([&](std::size_t lo, std::size_t hi) {
      std::memcpy(dst.get() + lo, src.get() + lo, hi - lo);
    });
  });
  if (std::memcmp(src.get(), dst.get(), n) != 0) {
    r.fail("host probe: copy differs");
  }
  const double gbs = 2.0 * static_cast<double>(bytes) / static_cast<double>(ns);
  r.add("host.copy_gbs", gbs, "GB/s");
  // B in site values per second (one byte per site: D = 8 bits) and S
  // the detected LLC in site values.
  const double storage = static_cast<double>(llc > 0 ? llc : bytes / 4);
  r.add("host.ceiling_sites_per_s",
        pebble::update_rate_upper(dim, storage, gbs * 1e9), "sites/s");
  r.note("host.copy_gbs: two arrays of " + std::to_string(bytes >> 20) +
         " MiB, LLC " + std::to_string(llc >> 20) + " MiB, " +
         std::to_string(lanes) + " threads, bytes read + written; ceiling at d=" +
         std::to_string(dim) + ", S = LLC");
  return gbs;
}

}  // namespace

void set_probe_box(ProbeShape& shape, std::int64_t sites) {
  std::int64_t side = 1;
  while (side * side * side < sites) side *= 2;
  shape.nx3 = shape.ny3 = side;
  shape.nz3 = sites / (side * side);
}

ProbeRates run_layer_probes(const Options& opt, const ProbeShape& shape,
                            Result& r) {
  ProbeRates rates;
  const Kernel2Result k2 = probe_lgca(opt, shape, r);
  rates.kernel2_sites_per_s = k2.rate;
  rates.kernel3_sites_per_s = probe_lgca3d(opt, shape, r);
  probe_checkpoint(opt, r);
  const double copy_gbs = probe_host(opt, shape.dim, r);
  // Computed, not counted: 2 B per site per streamed generation / depth.
  r.add("lgca.kernel_bw_frac",
        k2.rate * kPlaneBytesPerSiteGeneration /
            static_cast<double>(k2.depth) / (copy_gbs * 1e9),
        "frac");
  return rates;
}

}  // namespace perfbench
