// ReferenceExec — the golden double-buffered updater behind the
// executor interface, 2-D and 3-D. Kernel selection happens once at
// construction: 2-D gas rules get the fused CollisionLut sweep, other
// 2-D rules the generic virtual-dispatch path (threads > 1 bands the
// rows either way). Backend::Reference3 runs the cubic gas's golden
// updater over the flat {nx, ny·nz} state and stays deliberately
// unclever: it is the oracle the BitPlane3 backend is measured
// against, so it reuses the updater the parity tests trust rather than
// growing a fast path of its own. Neither dimension tiles:
// Config::tile_generations is ignored (the fused byte-LUT sweep is
// compute-bound, so temporal blocking has no traffic to save), and
// chunk_quantum() stays 1.

#include <optional>

#include "exec_factories.hpp"
#include "lattice/fault/memory_guard.hpp"
#include "lattice/lgca/collision_lut.hpp"
#include "lattice/lgca/reference.hpp"
#include "volume3.hpp"

namespace lattice::core::detail {

namespace {

class ReferenceExec final : public BackendExec {
 public:
  ReferenceExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
                fault::FaultInjector* injector)
      : BackendExec(backend_is_3d(config.backend) ? "reference3" : "reference",
                    config.pipeline_depth),
        config_(config),
        rule_(&rule) {
    if (config.fast_kernel && !backend_is_3d(config.backend)) {
      lut_ = lgca::CollisionLut::try_get(rule);
    }
    if (injector != nullptr) guard_.emplace(*injector);
  }

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    if (guard_) {
      // Guarded: one generation at a time, so each fault lands (and is
      // audited) in the same generation that would read it on the
      // bit-plane backend — the two fault runs stay like-for-like. The
      // site guard keys its draws by global flat row (z·ny + y in 3-D),
      // the same coordinates the plane guard uses.
      guard_->run_begin(state);
      for (std::int64_t g = 0; g < chunk; ++g) {
        guard_->inject_and_audit(state, generation + g);
        run_generations(state, 1, generation + g);
        guard_->record(state);
      }
    } else {
      run_generations(state, chunk, generation);
    }
    stats_.site_updates += state.extent().area() * chunk;
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    // Site space mirrors the in-lattice plane sources exactly; halo
    // guard words and the parity shadow plane only exist in the
    // bit-plane coding, so plans arming them are rejected here.
    return !plan.arms_machine_memory() && plan.halo_flip_rate == 0.0 &&
           !plan.parity_plane;
  }

  bool try_degrade() override {
    if (guard_ && injector()->has_stuck_planes()) {
      injector()->disable_stuck_planes();
      return true;
    }
    return false;
  }

 private:
  void run_generations(lgca::SiteLattice& state, std::int64_t chunk,
                       std::int64_t generation) {
    if (lut_ != nullptr) {
      lgca::fused_gas_run(state, *lut_, chunk, generation, config_.threads);
    } else if (config_.threads > 1 && !backend_is_3d(config_.backend)) {
      lgca::reference_run_parallel(state, *rule_, chunk, config_.threads,
                                   generation);
    } else {
      golden_run(config_, *rule_, state, chunk, generation);
    }
  }

  fault::FaultInjector* injector() { return guard_->injector(); }

  LatticeEngine::Config config_;
  const lgca::Rule* rule_;
  const lgca::CollisionLut* lut_ = nullptr;
  std::optional<fault::SiteMemoryGuard> guard_;
};

}  // namespace

std::unique_ptr<BackendExec> make_reference_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector) {
  LATTICE_REQUIRE(!backend_is_3d(config.backend) ||
                      config.custom_rule == nullptr,
                  "the 3-D backends run the cubic gas only; custom "
                  "rules have no 3-D form");
  return std::make_unique<ReferenceExec>(config, rule, injector);
}

}  // namespace lattice::core::detail
