// Plane-memory fault realization and online detection for the
// bit-plane backend (and its site-space mirror for the reference
// executor).
//
// The bit-plane backend models CAM-8-style plane-resident site memory:
// 8 bit-planes of 64-site words, guard words on the shift halos. The
// fault sources that matter for such a machine are transient flips in
// stored plane words, flips in the halo/guard words the funnel shifts
// read, and stuck DRAM columns (persistent or/and masks on one plane
// word). PlaneMemoryGuard realizes FaultPlan's plane-memory sources
// against a running plane_gas_run via the lgca::PlaneRunHooks seam and
// detects them online with three mechanisms, all keyed per *row* so
// detector counts are independent of the band split (thread count) and
// of the SIMD level:
//
//   per-plane ledger — LGCA collisions conserve mass per channel only
//       in aggregate, but memory at rest conserves every plane's
//       popcount exactly: a plane row's population when it is read at
//       generation t must equal its population when it was written at
//       t-1. One SIMD popcount per written plane row per generation
//       (PlaneSpanOps::popcount — the audit rides the same dispatch as
//       the kernel). Catches any flip that changes a (row, plane)
//       population.
//   halo canary — the guard words of every halo plane are a pure
//       function of the row payload (PlaneLattice::prepare_shift_halo);
//       recomputing and comparing them catches guard-word corruption
//       the payload popcounts cannot see.
//   parity shadow (opt-in: FaultPlan::parity_plane) — a ninth plane
//       holding the XOR of all eight, maintained at write time and
//       verified at read time. Catches every single-word corruption
//       individually — including popcount-balanced or/and masks that
//       the ledger alone misses — at the cost of one extra plane of
//       traffic; meant for soak runs.
//
// Detection happens in before_rows, i.e. within the same generation
// that reads the corrupted word — the engine's guarded loop sees the
// counter move during the pass that stored the fault and rolls back.
//
// Ledger lifetime: after_rows leaves the ledger and the parity shadow
// current for every row it produced, and the planes a kernel does not
// write stay put between runs, so at the end of a clean run both equal
// what a full rescan of the result would compute. The guard therefore
// keeps them across runs and rescans (serially, over the whole
// lattice) only on the first run and after invalidate() — which the
// owner calls whenever it replaces the planes outside a run: a load of
// new state, a rollback to a checkpoint, a resume from the oracle. A
// run whose detectors fired leaves a ledger of the corrupted evolution;
// its owner rolls back, and the rollback invalidates.
//
// SiteMemoryGuard mirrors the non-halo subset (transient plane flips +
// stuck plane words, ledger detection) in byte-site space for the
// reference executor: the same plan draws the identical fault set at
// identical global coordinates, so reference vs bit-plane fault runs
// are like-for-like — including the detector counts.

#pragma once

#include <cstdint>
#include <vector>

#include "lattice/fault/fault.hpp"
#include "lattice/lgca/lattice.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/lgca/plane_simd.hpp"

namespace lattice::fault {

class PlaneMemoryGuard final : public lgca::PlaneRunHooks {
 public:
  explicit PlaneMemoryGuard(FaultInjector& injector) : injector_(&injector) {}

  /// Drop the ledger and the parity shadow: the next run_begin rebuilds
  /// both from the planes it is handed. Call it after changing the
  /// planes outside a run (see the ledger lifetime note above).
  void invalidate() noexcept { ledger_valid_ = false; }

  // lgca::PlaneRunHooks. before_rows and after_rows are called
  // concurrently from the run's row bands on disjoint row ranges; all
  // guard state is per-row, and counter updates go through the
  // injector's thread-safe note_*/report_* methods. run_begin rescans
  // only when the ledger is invalid or the lattice shape changed.
  void run_begin(lgca::PlaneLattice& lat, std::uint32_t written_planes,
                 std::uint32_t halo_planes, std::int64_t t0) override;
  void before_rows(lgca::PlaneLattice& cur, std::int64_t t, std::int64_t y0,
                   std::int64_t y1) override;
  void after_rows(const lgca::PlaneLattice& next, std::int64_t t,
                  std::int64_t y0, std::int64_t y1) override;
  /// The audit's work per plane word and generation, in the band
  /// planner's HPP-word units: the fault draws and the popcounts of all
  /// eight planes before the update, the written planes' popcounts
  /// after it, and with the parity shadow two more eight-plane XOR
  /// sweeps.
  std::int64_t word_cost() const noexcept override;

 private:
  void rescan(const lgca::PlaneLattice& lat);
  std::uint64_t payload_popcount(const std::uint64_t* rp) const noexcept;
  std::uint64_t payload_xor(const std::uint64_t* const rows[], int planes,
                            std::int64_t k) const noexcept;
  void inject_rows(lgca::PlaneLattice& cur, std::int64_t t, std::int64_t y0,
                   std::int64_t y1);
  void audit_rows(const lgca::PlaneLattice& cur, std::int64_t y0,
                  std::int64_t y1);

  FaultInjector* injector_;
  const lgca::PlaneSpanOps* ops_ = nullptr;
  std::uint32_t halo_mask_ = 0;
  std::uint32_t written_mask_ = 0;
  int n_halo_ = 0;
  int halo_planes_[lgca::PlaneLattice::kPlanes] = {};
  lgca::Boundary boundary_ = lgca::Boundary::Null;
  Extent extent_{0, 0};
  std::int64_t words_ = 0;
  std::int64_t height_ = 0;
  std::uint64_t tail_ = ~std::uint64_t{0};
  bool shadow_armed_ = false;
  bool ledger_valid_ = false;
  std::vector<std::int64_t> ledger_;   // height × kPlanes populations
  std::vector<std::uint64_t> shadow_;  // height × words parity plane
};

/// The reference executor's mirror of the plane-memory fault model:
/// identical draws at identical global (generation, word) coordinates,
/// mapped onto byte sites (bit j of plane word y·words+k is bit `plane`
/// of site x = 64k + j), with the same per-(row, plane) population
/// ledger. Halo faults and the parity shadow have no site-space
/// representation; executors reject plans that arm them.
class SiteMemoryGuard {
 public:
  explicit SiteMemoryGuard(FaultInjector& injector) : injector_(&injector) {}

  /// Rebuild the ledger from the current lattice contents — start of
  /// every guarded pass, so a rollback invalidates nothing.
  void run_begin(const lgca::SiteLattice& lat);

  /// Inject the generation-t fault set into `lat`, then audit the
  /// ledger against it.
  void inject_and_audit(lgca::SiteLattice& lat, std::int64_t t);

  /// Record the post-update per-(row, plane) populations.
  void record(const lgca::SiteLattice& lat);

  FaultInjector* injector() const noexcept { return injector_; }

 private:
  void count_rows(const lgca::SiteLattice& lat,
                  std::vector<std::int64_t>& out) const;

  FaultInjector* injector_;
  std::int64_t words_ = 0;
  std::vector<std::int64_t> ledger_;  // height × kPlanes populations
  std::vector<std::int64_t> scratch_;
};

}  // namespace lattice::fault
