// Bit-parallel lattice-gas update over PlaneLattice bit-planes.
//
// Where CollisionLut replaces the semantic oracle's window build with a
// fused gather + one 256-entry table read per site, PlaneKernel goes
// one level further: it evaluates the collision rules themselves as
// boolean algebra on whole words of sites. Propagation is a funnel
// shift per channel plane (the guard-word halo makes it branch-free),
// collision is a fixed expression of ANDs/ORs/NOTs derived from the
// exact-configuration structure of the HPP and FHP rules, and the
// chirality variant is hashed per *event* site (head-on pairs are exact
// two-particle configurations, hence rare) — the only per-site rather
// than per-word work left in the FHP update, and hence its cost floor
// (docs/PERFORMANCE.md has the cost model).
//
// The word width is ISA-dispatched at runtime (plane_simd.hpp): the
// boolean algebra is written once over a word type and runs on 64-bit
// scalar words, 256-bit AVX2 vectors (4 words per op), or 512-bit
// AVX-512 vectors (8 words per op). All variants are bit-identical; the
// scalar word is always compiled in and finishes the remainder + masked
// tail word even when a vector word runs the bulk.
//
// Parallelism is static lane ownership: the one plane driver
// (plane_gas_run_tiled, temporal_tile.hpp) splits the lattice into
// contiguous bands of row units (see PlaneUnitKernel — a row in 2-D,
// a z-slab in 3-D), each owned by one pool lane for the whole run,
// with one barrier per block of generations (one generation untiled;
// a band is a depth-1 tile). A grain-size floor collapses the band
// count of an untiled run (down to an inline single-band loop) when
// per-generation work is too small to pay for the rendezvous, so
// thread scaling is monotone — more threads never run slower than
// fewer (docs/ARCHITECTURE.md, "Threading contract"). The same driver
// runs lgca3d::PlaneKernel3; only the kernel knows the dimension.
//
// Supported gases: HPP, FHP-I, FHP-II. FHP-III's collision table is a
// cyclic permutation of (mass, momentum) equivalence classes and has no
// compact boolean form; it keeps the byte-LUT path. Everything here is
// bit-identical to GasModel::collide / the golden reference updater —
// by construction, and by exhaustive test (all 256 site states × both
// chirality variants × every compiled SIMD level, plus multi-generation
// lattice parity).

#pragma once

#include <array>
#include <cstdint>

#include "lattice/lgca/gas_model.hpp"
#include "lattice/lgca/plane_lattice.hpp"
#include "lattice/lgca/plane_simd.hpp"

namespace lattice::lgca {

/// What the plane driver (plane_gas_run_tiled) needs from a kernel.
/// The driver bands and tiles a flat PlaneLattice in *row units* of
/// unit_rows() consecutive storage rows: one row for a
/// 2-D gas (PlaneKernel), one ny-row z-slab for the cubic 3-D gas
/// (lgca3d::PlaneKernel3, whose flat lattice is {nx, ny·nz} with row
/// z·ny + y). Everything dimension-specific — tap resolution, boundary
/// wraps, chirality coordinates — stays behind these calls, so one
/// driver serves every dimension.
class PlaneUnitKernel {
 public:
  virtual ~PlaneUnitKernel() = default;

  /// Bitmask (bit p = plane p) of the planes the update writes. The
  /// complement is static for a whole run and is established once by
  /// prime_static_planes() instead of being re-stored every word of
  /// every generation.
  virtual std::uint32_t written_planes() const noexcept = 0;

  /// Bitmask of the planes the update gathers with a column shift —
  /// the only planes whose shift halo must be current before an update
  /// reads them.
  virtual std::uint32_t halo_planes() const noexcept = 0;

  /// One-time setup for a double-buffered run: zeroes the static-zero
  /// planes (the update no longer clears them per word, and after
  /// swaps the original buffer resurfaces as output) and copies the
  /// obstacle plane into `next`, tail-masked. After this, both buffers
  /// agree on every plane outside written_planes() for the rest of the
  /// run.
  virtual void prime_static_planes(PlaneLattice& lat,
                                   PlaneLattice& next) const = 0;

  /// Storage rows per row unit (>= 1); the lattice height is a
  /// multiple of it.
  virtual std::int64_t unit_rows() const noexcept = 0;

  /// Update work per payload word of one plane and generation, in
  /// units of the cheapest kernel's (HPP's) word. The band planner
  /// floors a band's work, not its word count, so a kernel whose words
  /// cost more splits a lattice of the same size into more bands.
  /// A static ratio, measured single-threaded at working density on a
  /// periodic lattice at the default span width (docs/PERFORMANCE.md);
  /// it only has to be right to within the floor's factor-of-two
  /// resolution.
  virtual std::int64_t word_cost() const noexcept = 0;

  /// Compute generation-(t+1) units [u0, u1) of `next` from the
  /// generation-t lattice `cur`, whose shift halo must be current for
  /// halo_planes() and whose static planes must be primed. On return
  /// the produced rows of `next` are halo-ready for the following
  /// generation — the fill happens here, band-locally and cache-hot,
  /// rather than as a serial full-lattice walk between generations.
  virtual void update_units(PlaneLattice& next, const PlaneLattice& cur,
                            std::int64_t t, std::int64_t u0,
                            std::int64_t u1) const = 0;

  /// Windowed single-unit update for the tiled driver (temporal_tile.hpp):
  /// compute one unit into `next` at storage unit `dst_u` from `cur`
  /// centered on storage unit `src_u`, where the two lattices may have
  /// different heights (a trapezoid scratch strip vs the real lattice).
  /// `sem_u` is the unit's *semantic* lattice coordinate — it alone
  /// drives the parity-dependent taps and the chirality hash, so a
  /// scratch strip whose storage units are offset (or wrapped) from
  /// the lattice's still reproduces the golden update bit-exactly.
  /// Neighbor units resolve as src_u ± 1 against cur's own height and
  /// boundary (out-of-range reads zero under Null); the caller
  /// guarantees that resolution lands on units holding generation-t
  /// content whose shift halo is current. update_units is exactly this
  /// with dst_u == src_u == sem_u. Does NOT fill the produced unit's
  /// halo — the callers choose between band-local and per-unit fills.
  virtual void update_unit_window(PlaneLattice& next, std::int64_t dst_u,
                                  const PlaneLattice& cur, std::int64_t src_u,
                                  std::int64_t sem_u, std::int64_t t) const = 0;
};

/// The 2-D gas kernel; its row unit is one storage row.
class PlaneKernel final : public PlaneUnitKernel {
 public:
  /// True when `kind` has a boolean-algebra kernel (HPP, FHP-I/II).
  static bool supports(GasKind kind) noexcept;

  /// The (immutable, lazily built) singleton for a supported gas kind;
  /// throws lattice::Error for unsupported kinds (FHP-III).
  static const PlaneKernel& get(GasKind kind);

  /// The kernel for `rule` if it is a GasRule of a supported kind,
  /// nullptr otherwise — mirrors CollisionLut::try_get.
  static const PlaneKernel* try_get(const Rule& rule);

  const GasModel& model() const noexcept { return *model_; }
  GasKind kind() const noexcept { return model_->kind(); }

  /// The gas's moving channels, plus the rest plane when it has rest
  /// particles. HPP's unused channels 4/5, an absent rest plane and
  /// the obstacle mask are static.
  std::uint32_t written_planes() const noexcept override { return written_; }

  /// Planes with a tap dx != 0 on either row parity. Rest and obstacle
  /// are always read unshifted; for HPP even the N/S channel planes
  /// drop out, leaving just E/W.
  std::uint32_t halo_planes() const noexcept override { return halo_; }

  void prime_static_planes(PlaneLattice& lat,
                           PlaneLattice& next) const override;

  std::int64_t unit_rows() const noexcept override { return 1; }

  /// HPP 1, FHP-I 5, FHP-II 7: six gathered channels instead of four,
  /// the wider collision algebra and the per-event chirality hash.
  std::int64_t word_cost() const noexcept override { return cost_; }

  /// Compute generation-(t+1) rows [y0, y1) of `next` from `cur` (see
  /// update_units). Column-tiled so the three source row strips plus
  /// the destination strip stay cache resident on wide lattices;
  /// tile_words == 0 picks the default L2-sized tile. Runs at the
  /// process-wide active SIMD level (plane_simd_active). Bit-identical
  /// to GasRule::apply per site.
  void update_rows(PlaneLattice& next, const PlaneLattice& cur,
                   std::int64_t t, std::int64_t y0, std::int64_t y1,
                   std::int64_t tile_words = 0) const;

  void update_units(PlaneLattice& next, const PlaneLattice& cur, std::int64_t t,
                    std::int64_t y0, std::int64_t y1) const override {
    update_rows(next, cur, t, y0, y1);
  }

  /// One full row; `sem_y` selects the hex-parity tap set and feeds the
  /// per-event chirality hash.
  void update_unit_window(PlaneLattice& next, std::int64_t dst_y,
                          const PlaneLattice& cur, std::int64_t src_y,
                          std::int64_t sem_y, std::int64_t t) const override;

 private:
  explicit PlaneKernel(GasKind kind);

  void update_row_span(PlaneLattice& next, std::int64_t dst_y,
                       const PlaneLattice& cur, std::int64_t src_y,
                       std::int64_t sem_y, const PlaneSpanOps& ops,
                       std::int64_t t, std::int64_t k0,
                       std::int64_t k1) const;

  /// One gather tap per channel: channel i collects from the source row
  /// y + dy shifted by dx (the offset of the opposite-direction
  /// neighbor, exactly CollisionLut's taps).
  struct Tap {
    std::int8_t dx = 0;
    std::int8_t dy = 0;
  };

  const GasModel* model_;
  int channels_;
  SpanFn PlaneSpanOps::*span_;  // this gas's entry of every ops table
  std::uint32_t written_ = 0;
  std::uint32_t halo_ = 0;
  std::int64_t cost_ = 1;
  std::array<std::array<Tap, 6>, 2> taps_{};  // [row parity][channel]
};

/// Observation/instrumentation points inside the plane driver, keyed
/// to its lanes and blocks. The one client today is the fault
/// subsystem's PlaneMemoryGuard (fault/memory_guard.hpp), which injects
/// plane-word faults into the committed source and audits per-plane
/// particle ledgers over the produced rows; the interface lives here so
/// lgca never depends on lattice::fault. Rows are flat storage rows (a
/// lane owning units [u0, u1) sees rows [u0·unit_rows, u1·unit_rows)).
/// A null hooks pointer is the fault-free fast path: the run loop is
/// unchanged (one untaken branch per lane-block, and the extra
/// pre-update barrier is skipped entirely).
class PlaneRunHooks {
 public:
  virtual ~PlaneRunHooks() = default;

  /// Once per run, serially, after static planes are primed and the
  /// generation-t0 shift halo is filled, before any update. The masks
  /// are the running kernel's written_planes()/halo_planes(); the
  /// lattice is the flat storage every kernel shares (row z·ny + y for
  /// the 3-D gas), so the same hooks serve every dimension. State a
  /// hook keeps across runs is its own to validate: the lattice may
  /// have been replaced since the last run (PlaneMemoryGuard keeps its
  /// ledger and relies on its owner's invalidate() calls).
  virtual void run_begin(PlaneLattice& lat, std::uint32_t written_planes,
                         std::uint32_t halo_planes, std::int64_t t0) = 0;

  /// Per lane, per block, before the block's update reads rows
  /// [y0, y1) — the lane's own rows — of the committed generation-t
  /// source `cur`. May mutate those rows (fault injection). Called
  /// concurrently from all lanes; a barrier separates every
  /// before_rows from every update, so a lane never gathers a
  /// neighbor row (or a tile skirt row) that is still being mutated.
  virtual void before_rows(PlaneLattice& cur, std::int64_t t,
                           std::int64_t y0, std::int64_t y1) = 0;

  /// Per lane, per block, after the lane produced its rows [y0, y1) of
  /// `next` (halo-ready) at generation t + 1, where t is the block's
  /// last generation. Called concurrently; read-only.
  virtual void after_rows(const PlaneLattice& next, std::int64_t t,
                          std::int64_t y0, std::int64_t y1) = 0;

  /// The hooks' own work per payload word of one plane and generation,
  /// in PlaneUnitKernel::word_cost units: a hooked run's bands carry
  /// the kernel's work plus this, and the band planner floors the sum.
  virtual std::int64_t word_cost() const noexcept = 0;
};

/// Advance `lat` by `generations` steps of `kernel` on the plain,
/// untiled sweep: plane_gas_run_tiled (temporal_tile.hpp) with the
/// default TemporalTiling, so up to `threads` bands of whole row units
/// that the grain floor may merge into one inline band. Bit-identical
/// to the kernel's golden updater for any thread count and any SIMD
/// level. Defined with the driver in temporal_tile.cpp.
void plane_gas_run(PlaneLattice& lat, const PlaneUnitKernel& kernel,
                   std::int64_t generations, std::int64_t t0 = 0,
                   unsigned threads = 1);

}  // namespace lattice::lgca
