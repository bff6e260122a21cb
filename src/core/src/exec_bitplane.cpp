// BitPlaneExec — the multi-spin coded software backend, 2-D and 3-D.
// The kernel evaluates gas collisions as boolean algebra over 64-site
// words, so custom rules are rejected here (they have no plane form).
// One executor serves both dimensions: Backend::BitPlane runs the 2-D
// gas's PlaneKernel under the row-unit cache plan, Backend::BitPlane3
// the cubic gas's PlaneKernel3 (row unit = one z-slab of the flat
// {nx, ny·nz} state) under the d = 3 plan, both through the same
// lgca::bitplane_gas_run driver.
//
// max_chunk() takes everything in one pass: pipeline_depth is a
// hardware parameter with no meaning for this backend, and chunking by
// it would re-pay the pack/unpack transpose per chunk. One pass per
// advance() also gives snapshot() a single engine.pass.bitplane[3]_ns
// sample per call, with the bitplane.pack/update/unpack stages nested
// underneath it.

#include <optional>

#include "exec_factories.hpp"
#include "lattice/core/tile_plan.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/lgca3d/plane_kernel3.hpp"
#include "lattice/obs/metrics.hpp"
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

  void prepare(const lgca::SiteLattice& state) override { (void)state; }

  std::int64_t max_chunk(std::int64_t remaining) const noexcept override {
    return remaining;
  }

  std::int64_t chunk_quantum() const noexcept override { return plan_.depth; }

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    lgca::bitplane_gas_run(state, *kernel_, chunk, generation, threads_,
                           plan_.tiling(), guard_ ? &*guard_ : nullptr);
    stats_.site_updates += state.extent().area() * chunk;
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
  std::optional<lgca3d::PlaneKernel3> kernel3_;
  const lgca::PlaneUnitKernel* kernel_ = nullptr;
  unsigned threads_;
  fault::FaultInjector* injector_;
  TilePlan plan_;
  std::optional<fault::PlaneMemoryGuard> guard_;
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
