// Plane-memory fault injection and online detection for the bit-plane
// backend (docs/ROBUSTNESS.md): draw determinism across SIMD levels
// and band counts, detector coverage (per-plane popcount ledger, halo
// canary, parity shadow), the reference executor's site-space mirror,
// and end-to-end engine recovery — the headline claim being that a
// seeded soak under transient plane flips finishes bit-identical to
// the fault-free golden evolution, with the escalation ladder visible
// in the report.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <tuple>
#include <vector>

#include "lattice/core/engine.hpp"
#include "lattice/fault/fault.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca/temporal_tile.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"

namespace lattice {
namespace {

// ---- primitives ----

TEST(PlaneFaultPlan, ArmingClassification) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.armed());
  plan.plane_flip_rate = 1e-9;
  EXPECT_TRUE(plan.armed());
  EXPECT_TRUE(plan.arms_plane_memory());
  EXPECT_FALSE(plan.arms_machine_memory());
  plan = {};
  plan.halo_flip_rate = 0.1;
  EXPECT_TRUE(plan.arms_plane_memory());
  plan = {};
  plan.stuck_planes.push_back({2, 7, 0x1, ~std::uint64_t{0}});
  EXPECT_TRUE(plan.arms_plane_memory());
  plan = {};
  plan.parity_plane = true;
  EXPECT_TRUE(plan.arms_plane_memory()) << "a detector still arms the run";
  plan = {};
  plan.buffer_flip_rate = 1e-6;
  EXPECT_TRUE(plan.arms_machine_memory());
  EXPECT_FALSE(plan.arms_plane_memory());
}

TEST(PlaneFaultInjector, RejectsInvalidPlanePlans) {
  fault::FaultPlan plan;
  plan.plane_flip_rate = 1.5;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.halo_flip_rate = -0.1;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.stuck_planes.push_back({8, 0, 0x1, ~std::uint64_t{0}});
  EXPECT_THROW(fault::FaultInjector{plan}, Error) << "plane out of range";
  plan = {};
  plan.stuck_planes.push_back({0, -1, 0x1, ~std::uint64_t{0}});
  EXPECT_THROW(fault::FaultInjector{plan}, Error) << "negative word";
}

TEST(PlaneFaultInjector, PlaneDrawsAreDeterministicAndEpochKeyed) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.plane_flip_rate = 1.0;
  plan.halo_flip_rate = 1.0;
  const fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  bool epoch_changes_some_draw = false;
  for (std::int64_t word = 0; word < 64; ++word) {
    int pa = -1;
    int pb = -1;
    const std::uint64_t ma = a.draw_plane_flip(3, word, &pa);
    EXPECT_EQ(ma, b.draw_plane_flip(3, word, &pb)) << "same plan, same draw";
    EXPECT_EQ(pa, pb);
    EXPECT_GE(pa, 0);
    EXPECT_LT(pa, 8);
    EXPECT_EQ(std::popcount(ma), 1) << "exactly one bit per transient";
  }
  for (std::int64_t row = 0; row < 64; ++row) {
    int sa = -1;
    int sb = -1;
    bool la = false;
    bool lb = false;
    const std::uint64_t ma = a.draw_halo_flip(5, row, &sa, &la);
    EXPECT_EQ(ma, b.draw_halo_flip(5, row, &sb, &lb));
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(la, lb);
    EXPECT_EQ(std::popcount(ma), 1);
  }
  b.bump_epoch();
  for (std::int64_t word = 0; word < 64; ++word) {
    int pa = -1;
    int pb = -1;
    if (a.draw_plane_flip(4, word, &pa) != b.draw_plane_flip(4, word, &pb)) {
      epoch_changes_some_draw = true;
    }
  }
  EXPECT_TRUE(epoch_changes_some_draw) << "retries must redraw transients";
}

TEST(PlaneFaultInjector, StuckPlaneRetirement) {
  fault::FaultPlan plan;
  plan.stuck_planes.push_back({0, 3, ~std::uint64_t{0}, ~std::uint64_t{0}});
  plan.stuck_planes.push_back({0, 3, 0x1, ~std::uint64_t{0}});  // same cell
  plan.stuck_planes.push_back({5, 9, 0x2, ~std::uint64_t{0}});
  fault::FaultInjector inj(plan);
  EXPECT_TRUE(inj.has_stuck_planes());
  EXPECT_TRUE(inj.armed());
  EXPECT_EQ(inj.stuck_planes().size(), 3u);
  EXPECT_EQ(inj.disable_stuck_planes(), 2) << "distinct (plane, word) cells";
  EXPECT_FALSE(inj.has_stuck_planes());
  EXPECT_FALSE(inj.armed());
  EXPECT_TRUE(inj.stuck_planes().empty());
  EXPECT_EQ(inj.disable_stuck_planes(), 0) << "second disable is a no-op";
  EXPECT_EQ(inj.remapped_lanes(), 2);
}

// ---- direct-run detector coverage ----

lgca::SiteLattice seeded_lattice(Extent e, lgca::Boundary boundary,
                                 std::uint64_t seed = 7) {
  lgca::SiteLattice lat(e, boundary);
  lgca::fill_random(lat, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3,
                    seed, 0.15);
  return lat;
}

TEST(PlaneMemoryGuard, ParityShadowCatchesEveryPayloadFlipInItsPass) {
  // One generation, so each armed word is audited exactly once: the
  // shadow must fire once per applied flip, no more, no fewer.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.plane_flip_rate = 0.5;
  plan.parity_plane = true;
  fault::FaultInjector inj(plan);
  fault::PlaneMemoryGuard guard(inj);
  lgca::SiteLattice lat = seeded_lattice({64, 48}, lgca::Boundary::Null);
  lgca::bitplane_gas_run(lat, lgca::PlaneKernel::get(lgca::GasKind::FHP_II),
                         1, 0, 1, {}, &guard);
  const fault::FaultCounters& c = inj.counters();
  ASSERT_GT(c.injected_plane, 0);
  EXPECT_EQ(c.detected_shadow, c.injected_plane)
      << "every transient plane flip must trip the shadow in the pass "
         "that stored it";
  EXPECT_GT(c.detected_ledger, 0);
  EXPECT_EQ(c.detected_canary, 0)
      << "null-boundary payload flips never touch the guard words";
}

TEST(PlaneMemoryGuard, HaloCanaryCatchesEveryGuardWordFlip) {
  for (const lgca::Boundary boundary :
       {lgca::Boundary::Null, lgca::Boundary::Periodic}) {
    fault::FaultPlan plan;
    plan.seed = 12;
    plan.halo_flip_rate = 1.0;  // one guard flip per row per generation
    fault::FaultInjector inj(plan);
    fault::PlaneMemoryGuard guard(inj);
    lgca::SiteLattice lat = seeded_lattice({64, 32}, boundary);
    lgca::bitplane_gas_run(lat, lgca::PlaneKernel::get(lgca::GasKind::FHP_II),
                           1, 0, 1, {}, &guard);
    const fault::FaultCounters& c = inj.counters();
    EXPECT_EQ(c.injected_plane, 32);
    EXPECT_EQ(c.detected_canary, 32)
        << "one canary hit per corrupted halo row";
    EXPECT_EQ(c.detected_ledger, 0)
        << "guard words are outside every payload ledger";
    EXPECT_EQ(c.detected_shadow, 0);
  }
}

struct GuardRunResult {
  fault::FaultCounters counters;
  lgca::SiteLattice state;
};

GuardRunResult run_guarded(const fault::FaultPlan& plan,
                           const lgca::PlaneUnitKernel& kernel,
                           const lgca::SiteLattice& start, unsigned threads,
                           const lgca::TemporalTiling& tiling) {
  fault::FaultInjector inj(plan);
  fault::PlaneMemoryGuard guard(inj);
  lgca::PlaneLattice planes(start);
  lgca::plane_gas_run_tiled(planes, kernel, 24, 0, threads, tiling, &guard);
  return {inj.counters(), planes.to_sites()};
}

GuardRunResult run_guarded(const fault::FaultPlan& plan,
                           lgca::Boundary boundary, unsigned threads,
                           const lgca::TemporalTiling& tiling) {
  return run_guarded(plan, lgca::PlaneKernel::get(lgca::GasKind::FHP_II),
                     seeded_lattice({100, 40}, boundary), threads, tiling);
}

/// A seeded cubic-gas volume as the flat {nx, ny·nz} byte view the
/// 3-D kernel runs on.
lgca::SiteLattice seeded_volume(lgca3d::Extent3 e) {
  lgca3d::Lattice3 vol(e, lgca3d::Boundary3::Periodic);
  lgca3d::fill_random(vol, 0.3, 31);
  lgca::SiteLattice flat(lgca3d::flat_extent(e), lgca::Boundary::Periodic);
  std::memcpy(flat.grid().data(), vol.data(), vol.site_count());
  return flat;
}

void expect_same_counters(const fault::FaultCounters& a,
                          const fault::FaultCounters& b) {
  EXPECT_EQ(a.injected_plane, b.injected_plane);
  EXPECT_EQ(a.injected_stuck, b.injected_stuck);
  EXPECT_EQ(a.detected_ledger, b.detected_ledger);
  EXPECT_EQ(a.detected_canary, b.detected_canary);
  EXPECT_EQ(a.detected_shadow, b.detected_shadow);
}

fault::FaultPlan mixed_plane_plan() {
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.plane_flip_rate = 0.01;
  plan.halo_flip_rate = 0.05;
  plan.parity_plane = true;
  plan.stuck_planes.push_back({1, 10, 0x0F, ~std::uint64_t{0}});
  return plan;
}

TEST(PlaneMemoryGuard, FaultSetAndDetectionsAreBandCountInvariant) {
  // Faults are keyed by global lattice coordinates and detectors are
  // per-row, so splitting the sweep over concurrent lanes must not
  // change a single counter (or the corrupted evolution itself). The
  // depth-1 tilings force the multi-band path with its injection
  // barrier: row bands in 2-D, z-slab bands of the flat lattice (hooks
  // over rows z0·ny..z1·ny) for the 3-D kernel, whose engine runs never
  // band at test sizes under the default grain. The depth-3 tilings run
  // the same hooks per lane inside tile blocks, where a tile's skirts
  // read rows another lane injects.
  const lgca3d::PlaneKernel3 cubic(6);
  struct Input {
    const char* name;
    const lgca::PlaneUnitKernel& kernel;
    lgca::SiteLattice start;
    lgca::TemporalTiling tiling;
  };
  const lgca::SiteLattice flat = seeded_lattice({100, 40},
                                                lgca::Boundary::Periodic);
  const lgca::SiteLattice volume = seeded_volume({70, 6, 8});
  const lgca::PlaneKernel& fhp2 =
      lgca::PlaneKernel::get(lgca::GasKind::FHP_II);
  const Input inputs[] = {
      {"2-D FHP-II bands", fhp2, flat, {1, 10}},
      {"3-D cubic bands", cubic, volume, {1, 2}},
      {"2-D FHP-II tiles", fhp2, flat, {3, 8}},
      {"3-D cubic tiles", cubic, volume, {3, 3}},
  };
  const fault::FaultPlan plan = mixed_plane_plan();
  for (const Input& in : inputs) {
    const GuardRunResult serial =
        run_guarded(plan, in.kernel, in.start, 1, in.tiling);
    const GuardRunResult banded =
        run_guarded(plan, in.kernel, in.start, 4, in.tiling);
    SCOPED_TRACE(in.name);
    ASSERT_GT(serial.counters.injected(), 0);
    expect_same_counters(serial.counters, banded.counters);
    EXPECT_TRUE(serial.state == banded.state);
  }
}

struct PassRunResult {
  fault::FaultCounters counters;
  lgca::SiteLattice state;
  int committed = 0;
  int rolled_back = 0;
};

/// Twelve four-generation guarded passes under the engine's rollback
/// discipline: a pass whose detectors fired is discarded (planes
/// restored from the last clean pass, ledger invalidated, epoch
/// bumped). `reuse` keeps one guard, whose ledger persists across
/// passes; otherwise every pass gets a fresh guard, which rescans.
PassRunResult run_passes(const fault::FaultPlan& plan,
                         const lgca::PlaneUnitKernel& kernel,
                         const lgca::SiteLattice& start, unsigned threads,
                         const lgca::TemporalTiling& tiling, bool reuse) {
  fault::FaultInjector inj(plan);
  std::optional<fault::PlaneMemoryGuard> guard;
  lgca::PlaneLattice lat(start);
  lgca::PlaneLattice next(start.extent(), start.boundary());
  lgca::PlaneLattice ckpt = lat;
  PassRunResult r;
  std::int64_t t = 0;
  for (int pass = 0; pass < 12; ++pass) {
    if (!reuse || !guard) guard.emplace(inj);
    const std::int64_t before = inj.counters().detected();
    lgca::plane_gas_run_tiled(lat, next, kernel, 4, t, threads, tiling,
                              &*guard);
    if (inj.counters().detected() != before) {
      lat = ckpt;
      guard->invalidate();
      inj.bump_epoch();
      ++r.rolled_back;
    } else {
      ckpt = lat;
      t += 4;
      ++r.committed;
    }
  }
  r.counters = inj.counters();
  r.state = lat.to_sites();
  return r;
}

TEST(PlaneMemoryGuard, PersistentLedgerMatchesARebuiltGuardEveryPass) {
  // The ledger and parity shadow that after_rows leaves behind must be
  // exactly what a rescan would build: one guard reused over the passes
  // gives the same fault set, detections, commits and state as a guard
  // rebuilt for every pass — 2-D and 3-D, one lane and four (depth-1
  // tilings force the bands), parity shadow on and off.
  const lgca3d::PlaneKernel3 cubic(6);
  const lgca::PlaneKernel& fhp2 =
      lgca::PlaneKernel::get(lgca::GasKind::FHP_II);
  struct Input {
    const char* name;
    const lgca::PlaneUnitKernel& kernel;
    lgca::SiteLattice start;
    lgca::TemporalTiling bands;
  };
  const Input inputs[] = {
      {"2-D FHP-II", fhp2, seeded_lattice({100, 40}, lgca::Boundary::Null),
       {1, 10}},
      {"3-D cubic", cubic, seeded_volume({70, 6, 8}), {1, 2}},
  };
  for (const Input& in : inputs) {
    for (const bool parity : {false, true}) {
      for (const unsigned threads : {1u, 4u}) {
        fault::FaultPlan plan;
        plan.seed = 41;
        plan.plane_flip_rate = 2e-3;
        plan.halo_flip_rate = 2e-3;
        plan.parity_plane = parity;
        SCOPED_TRACE(testing::Message() << in.name << " parity " << parity
                                        << " threads " << threads);
        const PassRunResult rebuilt =
            run_passes(plan, in.kernel, in.start, threads, in.bands, false);
        const PassRunResult reused =
            run_passes(plan, in.kernel, in.start, threads, in.bands, true);
        ASSERT_GT(rebuilt.committed, 0);
        ASSERT_GT(rebuilt.rolled_back, 0);
        EXPECT_EQ(reused.committed, rebuilt.committed);
        EXPECT_EQ(reused.rolled_back, rebuilt.rolled_back);
        expect_same_counters(rebuilt.counters, reused.counters);
        EXPECT_TRUE(reused.state == rebuilt.state);
      }
    }
  }
}

TEST(PlaneMemoryGuard, FaultSetAndDetectionsAreSimdLevelInvariant) {
  // The acceptance hinge for cross-ISA runs: the same plan must draw
  // the identical fault set and the detectors (which ride the SIMD
  // popcount dispatch) must report identical counts on every level
  // this machine supports.
  const lgca::SimdLevel base = lgca::SimdLevel::Scalar;
  GuardRunResult golden{fault::FaultCounters{}, lgca::SiteLattice{}};
  {
    const lgca::ScopedSimdLevel pin(base);
    golden = run_guarded(mixed_plane_plan(), lgca::Boundary::Null, 1, {});
  }
  ASSERT_GT(golden.counters.injected(), 0);
  for (const lgca::SimdLevel level :
       {lgca::SimdLevel::Avx2, lgca::SimdLevel::Avx512}) {
    if (!lgca::simd_supported(level)) continue;
    const lgca::ScopedSimdLevel pin(level);
    const GuardRunResult got =
        run_guarded(mixed_plane_plan(), lgca::Boundary::Null, 1, {});
    expect_same_counters(golden.counters, got.counters);
    EXPECT_TRUE(golden.state == got.state)
        << "corrupted evolution must match on " << lgca::to_string(level);
  }
}

// ---- engine integration ----

core::LatticeEngine::Config engine_cfg(core::Backend backend,
                                       lgca::Boundary boundary) {
  core::LatticeEngine::Config c;
  c.extent = {64, 64};
  c.gas = lgca::GasKind::FHP_II;
  c.boundary = boundary;
  c.backend = backend;
  c.pipeline_depth = 4;
  c.threads = 1;
  return c;
}

void seed_engine(core::LatticeEngine& e) {
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 31, 0.15);
}

TEST(PlaneFaultEngine, PlanCapabilityMatrix) {
  fault::FaultPlan plane_plan;
  plane_plan.plane_flip_rate = 1e-4;
  fault::FaultPlan halo_plan;
  halo_plan.halo_flip_rate = 1e-4;
  fault::FaultPlan byte_plan;
  byte_plan.buffer_flip_rate = 1e-4;

  for (const core::Backend hw :
       {core::Backend::Wsa, core::Backend::Spa, core::Backend::WsaE}) {
    core::LatticeEngine::Config c = engine_cfg(hw, lgca::Boundary::Null);
    c.wsa_width = 2;
    c.spa_slice_width = 8;
    c.fault = plane_plan;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "pipeline simulators have no plane memory to corrupt";
  }
  {
    core::LatticeEngine::Config c =
        engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
    c.fault = byte_plan;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "the bit-plane backend has no simulated buffers or links";
    c.fault = plane_plan;
    EXPECT_NO_THROW(core::LatticeEngine{c});
    c.fault = halo_plan;
    EXPECT_NO_THROW(core::LatticeEngine{c});
  }
  {
    core::LatticeEngine::Config c =
        engine_cfg(core::Backend::Reference, lgca::Boundary::Null);
    c.fault = plane_plan;
    EXPECT_NO_THROW(core::LatticeEngine{c})
        << "the reference executor mirrors in-lattice plane faults";
    c.fault = halo_plan;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "site space has no halo guard words";
    c.fault = {};
    c.fault.parity_plane = true;
    EXPECT_THROW(core::LatticeEngine{c}, Error)
        << "site space has no parity shadow plane";
  }
}

TEST(PlaneFaultEngine, ArmedButInertPlanRaisesNoFalsePositives) {
  // Detectors fully armed, fault sources all inert: the ledger, the
  // canary (both boundary modes, one- and two-word rows) and the
  // parity shadow must stay silent, and the run must be bit-exact
  // against the unguarded fast path.
  struct Geometry {
    Extent extent;
    lgca::Boundary boundary;
  };
  for (const Geometry g : {Geometry{{48, 32}, lgca::Boundary::Null},
                           Geometry{{64, 32}, lgca::Boundary::Periodic},
                           Geometry{{100, 24}, lgca::Boundary::Periodic}}) {
    core::LatticeEngine::Config armed_cfg =
        engine_cfg(core::Backend::BitPlane, g.boundary);
    armed_cfg.extent = g.extent;
    armed_cfg.fault.parity_plane = true;
    // An identity stuck mask arms the source but can never change a word.
    armed_cfg.fault.stuck_planes.push_back(
        {3, 5, 0, ~std::uint64_t{0}});
    core::LatticeEngine armed(armed_cfg);
    core::LatticeEngine::Config clean_cfg =
        engine_cfg(core::Backend::BitPlane, g.boundary);
    clean_cfg.extent = g.extent;
    core::LatticeEngine clean(clean_cfg);
    seed_engine(armed);
    seed_engine(clean);
    armed.advance(40);
    clean.advance(40);
    const fault::FaultCounters c = armed.fault_counters();
    EXPECT_EQ(c.injected(), 0);
    EXPECT_EQ(c.detected(), 0) << "no injector activity, no detections";
    EXPECT_EQ(armed.report().rollbacks, 0);
    EXPECT_TRUE(armed.state() == clean.state())
        << "armed-but-inert guarded run must match the fast path";
  }
}

TEST(PlaneFaultEngine, RecoveredRunMatchesFaultFreeGolden) {
  // Moderate transient rate: rollback-retry alone recovers, and the
  // committed evolution is the fault-free one.
  core::LatticeEngine::Config c =
      engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
  c.fault.seed = 5;
  c.fault.plane_flip_rate = 1e-3;
  c.fault.parity_plane = true;
  core::LatticeEngine guarded(c);
  core::LatticeEngine golden(
      engine_cfg(core::Backend::Reference, lgca::Boundary::Null));
  seed_engine(guarded);
  seed_engine(golden);
  guarded.advance(80);
  golden.advance(80);
  const core::PerformanceReport r = guarded.report();
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_GT(r.faults_detected, 0);
  EXPECT_GT(r.rollbacks, 0);
  EXPECT_TRUE(guarded.state() == golden.state())
      << "committed generations must be the fault-free evolution";
  EXPECT_TRUE(guarded.verify_against_reference());
}

TEST(PlaneFaultEngine, ReferenceMirrorTracksBitPlaneRun) {
  // Like-for-like: the same non-halo plan on the reference executor
  // must inject the identical fault set, fail the identical passes,
  // and commit the identical (fault-free) evolution.
  auto run = [](core::Backend backend) {
    core::LatticeEngine::Config c =
        engine_cfg(backend, lgca::Boundary::Null);
    c.fault.seed = 21;
    c.fault.plane_flip_rate = 2e-3;
    core::LatticeEngine e(c);
    seed_engine(e);
    e.advance(60);
    return std::tuple(e.fault_counters(), e.report().rollbacks,
                      e.state());
  };
  const auto [ref_counters, ref_rollbacks, ref_state] =
      run(core::Backend::Reference);
  const auto [bp_counters, bp_rollbacks, bp_state] =
      run(core::Backend::BitPlane);
  ASSERT_GT(ref_counters.injected_plane, 0);
  EXPECT_EQ(ref_counters.injected_plane, bp_counters.injected_plane)
      << "identical draws at identical global coordinates";
  EXPECT_EQ(ref_rollbacks, bp_rollbacks)
      << "the same passes must fail on both backends";
  EXPECT_TRUE(ref_state == bp_state);
}

/// The shape of guarded_fhp2_1024: one-generation machine passes
/// (pipeline_depth 1) under a four-generation checkpoint, so every
/// software pass runs to the checkpoint.
core::LatticeEngine::Config depth_one_cfg(core::Backend backend) {
  core::LatticeEngine::Config c = engine_cfg(backend, lgca::Boundary::Null);
  c.pipeline_depth = 1;
  c.checkpoint_interval = 4;
  return c;
}

TEST(PlaneFaultEngine, ReferenceMirrorTracksBitPlaneRunAtDepthOne) {
  // pipeline_depth 1 < checkpoint_interval 4: both software executors
  // must run the same four-generation passes (a rollback restores the
  // planes and the bit-plane guard rescans), so they inject the same
  // faults, fail the same passes and commit the same state.
  auto run = [](core::Backend backend) {
    core::LatticeEngine::Config c = depth_one_cfg(backend);
    c.fault.seed = 21;
    c.fault.plane_flip_rate = 2e-3;
    core::LatticeEngine e(c);
    seed_engine(e);
    e.advance(60);
    return std::tuple(e.fault_counters(), e.report().rollbacks, e.state());
  };
  const auto [ref_counters, ref_rollbacks, ref_state] =
      run(core::Backend::Reference);
  const auto [bp_counters, bp_rollbacks, bp_state] =
      run(core::Backend::BitPlane);
  ASSERT_GT(ref_counters.injected_plane, 0);
  ASSERT_GT(ref_rollbacks, 0);
  EXPECT_EQ(ref_counters.injected_plane, bp_counters.injected_plane);
  EXPECT_EQ(ref_rollbacks, bp_rollbacks);
  EXPECT_TRUE(ref_state == bp_state);
}

TEST(PlaneFaultEngine, OracleResumeRebuildsTheLedger) {
  // No retries: a dirty pass halves the interval 4 -> 2 -> 1, and a
  // dirty one-generation pass goes to the oracle, which recomputes that
  // generation — so the oracle pass ends exactly where the dirty pass
  // ended, and the next bit-plane pass starts from there on planes the
  // oracle replaced. The ledger must be rebuilt from them: the mirror
  // (whose site guard rescans every pass) must see the same faults,
  // rollbacks and oracle passes, and both end on the golden state.
  auto run = [](core::Backend backend) {
    core::LatticeEngine::Config c = depth_one_cfg(backend);
    c.fault.seed = 8;
    c.fault.plane_flip_rate = 1e-2;
    c.max_retries = 0;
    c.oracle_fallback = true;
    core::LatticeEngine e(c);
    seed_engine(e);
    e.advance(40);
    const core::PerformanceReport r = e.report();
    return std::tuple(e.fault_counters(), r.rollbacks, r.oracle_passes,
                      e.state());
  };
  const auto [ref_counters, ref_rollbacks, ref_oracle, ref_state] =
      run(core::Backend::Reference);
  const auto [bp_counters, bp_rollbacks, bp_oracle, bp_state] =
      run(core::Backend::BitPlane);
  ASSERT_GT(ref_oracle, 0);
  EXPECT_EQ(ref_oracle, bp_oracle);
  EXPECT_EQ(ref_rollbacks, bp_rollbacks);
  EXPECT_EQ(ref_counters.injected_plane, bp_counters.injected_plane);
  core::LatticeEngine golden(
      engine_cfg(core::Backend::Reference, lgca::Boundary::Null));
  seed_engine(golden);
  golden.advance(40);
  EXPECT_TRUE(bp_state == golden.state());
  EXPECT_TRUE(ref_state == bp_state);
}

TEST(PlaneFaultEngine, WrittenStateRebuildsTheLedger) {
  // A caller that writes the state between advance() calls replaces the
  // planes (load_state): the next guarded pass must audit against the
  // new populations, not the old run's ledger.
  core::LatticeEngine::Config c = depth_one_cfg(core::Backend::BitPlane);
  c.fault.parity_plane = true;  // armed, but nothing is ever injected
  core::LatticeEngine armed(c);
  core::LatticeEngine clean(depth_one_cfg(core::Backend::Reference));
  for (core::LatticeEngine* e : {&armed, &clean}) {
    seed_engine(*e);
    e->advance(8);
    lgca::fill_random(e->state(), e->gas_model(), 0.4, 77, 0.3);
    e->advance(8);
  }
  EXPECT_EQ(armed.fault_counters().detected(), 0);
  EXPECT_EQ(armed.report().rollbacks, 0);
  EXPECT_TRUE(armed.state() == clean.state());
}

TEST(PlaneFaultEngine, StuckPlaneWordEscalatesToDegradeOnBothBackends) {
  // A persistent fault survives every retry, so the ladder must climb:
  // shrink the interval, then retire the stuck word via the executor's
  // degrade hook — after which the run completes on the fault-free
  // evolution.
  for (const core::Backend backend :
       {core::Backend::BitPlane, core::Backend::Reference}) {
    core::LatticeEngine::Config c = engine_cfg(backend, lgca::Boundary::Null);
    c.fault.stuck_planes.push_back(
        {0, 5, ~std::uint64_t{0}, ~std::uint64_t{0}});
    c.max_retries = 1;
    core::LatticeEngine guarded(c);
    core::LatticeEngine golden(
        engine_cfg(core::Backend::Reference, lgca::Boundary::Null));
    seed_engine(guarded);
    seed_engine(golden);
    guarded.advance(30);
    golden.advance(30);
    const core::PerformanceReport r = guarded.report();
    EXPECT_GT(r.rollbacks, 0);
    EXPECT_GE(r.interval_shrinks, 1) << "shrink rung precedes degrade";
    EXPECT_EQ(r.remapped_slices, 1) << "one stuck plane word retired";
    EXPECT_EQ(r.oracle_passes, 0);
    EXPECT_TRUE(guarded.state() == golden.state());
  }
}

TEST(PlaneFaultEngine, CorruptionErrorWhenLadderIsExhausted) {
  // No retry can beat rate-1.0 flips, no stuck word exists to retire,
  // and the oracle is off: the ladder must end in the typed error.
  core::LatticeEngine::Config c =
      engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
  c.fault.seed = 3;
  c.fault.plane_flip_rate = 1.0;
  c.max_retries = 1;
  core::LatticeEngine e(c);
  seed_engine(e);
  try {
    e.advance(8);
    FAIL() << "expected CorruptionError";
  } catch (const fault::CorruptionError& err) {
    EXPECT_GT(err.counters().injected_plane, 0);
    EXPECT_GT(err.counters().detected(), 0);
  }
  EXPECT_GE(e.report().interval_shrinks, 1)
      << "the ladder was climbed before giving up";
}

TEST(PlaneFaultEngine, SeededSoakMatchesGoldenAcrossSimdLevels) {
  // The acceptance soak: a high transient rate drives every escalation
  // rung (retry, shrink, oracle), at least a thousand faults land
  // across the SIMD levels this machine supports, and each run still
  // ends bit-identical to the fault-free golden reference.
  core::LatticeEngine golden(
      engine_cfg(core::Backend::Reference, lgca::Boundary::Null));
  seed_engine(golden);
  golden.advance(250);

  std::int64_t total_injected = 0;
  for (const lgca::SimdLevel level :
       {lgca::SimdLevel::Scalar, lgca::SimdLevel::Avx2,
        lgca::SimdLevel::Avx512}) {
    if (!lgca::simd_supported(level)) continue;
    const lgca::ScopedSimdLevel pin(level);
    core::LatticeEngine::Config c =
        engine_cfg(core::Backend::BitPlane, lgca::Boundary::Null);
    c.fault.seed = 17;
    c.fault.plane_flip_rate = 0.03;
    c.fault.parity_plane = true;  // catches every flip, so committed
                                  // generations are provably clean
    c.max_retries = 2;
    c.oracle_fallback = true;
    core::LatticeEngine e(c);
    seed_engine(e);
    e.advance(250);
    const core::PerformanceReport r = e.report();
    EXPECT_GT(r.rollbacks, 0) << lgca::to_string(level);
    EXPECT_GT(r.interval_shrinks, 0) << lgca::to_string(level);
    EXPECT_GT(r.oracle_passes, 0) << lgca::to_string(level);
    EXPECT_GT(r.faults_injected, 300) << lgca::to_string(level);
    total_injected += r.faults_injected;
    EXPECT_TRUE(e.state() == golden.state())
        << "soak on " << lgca::to_string(level)
        << " must end bit-identical to the fault-free golden run";
  }
  EXPECT_GE(total_injected, 1000);
}

}  // namespace
}  // namespace lattice
