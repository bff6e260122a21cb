// BitPlaneExec — the multi-spin coded software backend, 2-D and 3-D.
// The kernel evaluates gas collisions as boolean algebra over 64-site
// words, so custom rules are rejected here (they have no plane form).
// One executor serves both dimensions: Backend::BitPlane runs the 2-D
// gas's PlaneKernel under the row-unit cache plan, Backend::BitPlane3
// the cubic gas's PlaneKernel3 (row unit = one z-slab of the flat
// {nx, ny·nz} state) under the d = 3 plan, both through the same
// lgca::plane_gas_run_tiled driver.
//
// The executor is resident (BackendExec::owns_state): its PlaneLattice
// double buffer holds the state across passes, allocated on the first
// load_state(). The byte <-> plane transposes run only when the engine
// syncs its byte view — bitplane.pack_ns on load_state(),
// bitplane.unpack_ns on store_state() — and a pass is the plane run
// alone (bitplane.update_ns). Guarded checkpoints copy plane words.
//
// max_chunk() takes everything in one pass: pipeline_depth is a
// hardware parameter with no meaning for this backend. One pass per
// advance() also gives snapshot() a single engine.pass.bitplane[3]_ns
// sample per call.

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "exec_factories.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"
#include "volume3.hpp"

namespace lattice::core::detail {

namespace {

TilePlan plane_tile_plan(const LatticeEngine::Config& config) {
  if (backend_is_3d(config.backend)) {
    return plan_temporal_tiles3(extent3_of(config),
                                lgca3d::to_boundary3(config.boundary),
                                config.tile_generations);
  }
  return plan_temporal_tiles(config.extent, config.boundary,
                             plane_row_bytes(config.extent),
                             config.tile_generations);
}

class BitPlaneExec final : public BackendExec {
 public:
  BitPlaneExec(const LatticeEngine::Config& config,
               fault::FaultInjector* injector)
      : BackendExec(backend_is_3d(config.backend) ? "bitplane3" : "bitplane",
                    config.pipeline_depth),
        threads_(config.threads),
        injector_(injector),
        plan_(plane_tile_plan(config)) {
    if (injector_ != nullptr) guard_.emplace(*injector_);
    // Surface which span width this backend runs (a profile can't tell
    // 64-bit from 512-bit words from timings alone). The 3-D spans are
    // scalar64-only (see plane_kernel3.hpp).
    if (backend_is_3d(config.backend)) {
      kernel3_.emplace(config.extent.height);
      kernel_ = &*kernel3_;
      static const obs::MetricsRegistry::Id simd3_id =
          obs::gauge_id("bitplane3.simd_bits");
      obs::gauge_set(simd3_id, 64);
    } else {
      kernel_ = &lgca::PlaneKernel::get(config.gas);
      static const obs::MetricsRegistry::Id simd_id =
          obs::gauge_id("bitplane.simd_bits");
      const auto bits =
          lgca::plane_span_ops(lgca::plane_simd_active()).width_bits;
      obs::gauge_set(simd_id, bits);
    }
  }

  std::int64_t max_chunk(std::int64_t remaining) const noexcept override {
    return remaining;
  }

  std::int64_t chunk_quantum() const noexcept override { return plan_.depth; }

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    (void)state;
    const obs::ScopedTimer timer(Obs::get().update);
    const obs::TraceSpan span("bitplane.update");
    lgca::plane_gas_run_tiled(lat_, next_, *kernel_, chunk, generation,
                              threads_, plan_.tiling(),
                              guard_ ? &*guard_ : nullptr);
    stats_.site_updates += lat_.extent().area() * chunk;
  }

  bool owns_state() const noexcept override { return true; }

  void load_state(const lgca::SiteLattice& state) override {
    const obs::ScopedTimer timer(Obs::get().pack);
    const obs::TraceSpan span("bitplane.pack");
    if (lat_.extent() != state.extent()) {
      lat_ = lgca::PlaneLattice(state.extent(), state.boundary());
      next_ = lgca::PlaneLattice(state.extent(), state.boundary());
    }
    lat_.pack(state, threads_);
  }

  void store_state(lgca::SiteLattice& state) const override {
    const obs::ScopedTimer timer(Obs::get().unpack);
    const obs::TraceSpan span("bitplane.unpack");
    lat_.unpack(state, threads_);
  }

  // A snapshot keeps the payload words of the planes a pass can change:
  // the written planes, plus the obstacle plane, which only a fault
  // alters. Rollback re-zeroes the static-zero planes, as the next
  // pass's priming would.
  void save_snapshot() override {
    const std::uint32_t kept = kept_planes();
    const std::int64_t words = lat_.words_per_row();
    checkpoint_.resize(static_cast<std::size_t>(
        std::popcount(kept) * lat_.extent().height * words));
    std::uint64_t* out = checkpoint_.data();
    for_plane_rows(kept, [&](int p, std::int64_t y) {
      out = std::copy_n(lat_.row(p, y), words, out);
    });
  }

  void load_snapshot() override {
    const std::uint32_t kept = kept_planes();
    const std::int64_t words = lat_.words_per_row();
    const std::uint64_t* in = checkpoint_.data();
    for_plane_rows(kept, [&](int p, std::int64_t y) {
      std::copy_n(in, words, lat_.row(p, y));
      in += words;
    });
    for_plane_rows(~kept & 0xffu, [&](int p, std::int64_t y) {
      std::fill_n(lat_.row(p, y), words, std::uint64_t{0});
    });
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    // Plane-resident storage realizes every plane-memory source; the
    // machine-memory sources (pipeline buffers, inter-stage links,
    // stuck chips) have no physical analog here.
    return !plan.arms_machine_memory();
  }

  bool try_degrade() override {
    if (injector_ != nullptr && injector_->has_stuck_planes()) {
      injector_->disable_stuck_planes();
      return true;
    }
    return false;
  }

 private:
  std::uint32_t kept_planes() const noexcept {
    return kernel_->written_planes() | lgca::kObstacleBit;
  }

  template <typename Fn>
  void for_plane_rows(std::uint32_t planes, const Fn& fn) const {
    for (int p = 0; p < lgca::PlaneLattice::kPlanes; ++p) {
      if (((planes >> p) & 1u) == 0) continue;
      for (std::int64_t y = 0; y < lat_.extent().height; ++y) fn(p, y);
    }
  }

  /// The bitplane.* stage histograms this executor's work lands in.
  struct Obs {
    obs::MetricsRegistry::Id pack = obs::histogram_id("bitplane.pack_ns");
    obs::MetricsRegistry::Id update = obs::histogram_id("bitplane.update_ns");
    obs::MetricsRegistry::Id unpack = obs::histogram_id("bitplane.unpack_ns");
    static const Obs& get() {
      static const Obs ids;
      return ids;
    }
  };

  std::optional<lgca3d::PlaneKernel3> kernel3_;
  const lgca::PlaneUnitKernel* kernel_ = nullptr;
  unsigned threads_;
  fault::FaultInjector* injector_;
  TilePlan plan_;
  std::optional<fault::PlaneMemoryGuard> guard_;
  /// The resident state (lat_) and its double buffer; empty until the
  /// first load_state().
  lgca::PlaneLattice lat_;
  lgca::PlaneLattice next_;
  /// The guarded checkpoint: payload words of kept_planes(), plane by
  /// plane, row by row.
  std::vector<std::uint64_t> checkpoint_;
};

}  // namespace

std::unique_ptr<BackendExec> make_bitplane_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector) {
  (void)rule;
  LATTICE_REQUIRE(config.custom_rule == nullptr,
                  "the bit-plane backends run lattice gases only; "
                  "custom rules have no boolean-algebra kernel");
  return std::make_unique<BitPlaneExec>(config, injector);
}

}  // namespace lattice::core::detail
