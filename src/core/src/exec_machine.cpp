// MachineExec — the three hardware simulators behind the executor
// interface: the wide-serial pipeline (WSA), its extensible form with
// the line buffer off chip (WSA-E, §5), and the Sternberg partitioned
// machine (SPA).
//
// The machine is built once, in the constructor, and persists across
// passes: every pass retargets it with set_t0() and runs its leading
// `chunk` stages, so a ragged pass (chunk < pipeline depth) costs what
// a fresh shallower machine would without building one, and the
// steady-state advance loop allocates nothing. The executor's counters
// are the machine's own. This is the one executor whose passes are
// capped: max_chunk() is the pipeline depth, the machine's stage count.
//
// Per machine there is only what the machine alone knows: the report
// fields (WSA's 2·D·P stream, WSA-E's off-chip buffer ledger, SPA's
// 2·D·L/W stream), SPA's default slice width (normalized into the
// engine's config by the factory) and SPA's stuck-chip remap in
// try_degrade(), where the injector pulls failed (depth, slice) lanes
// out of the datapath and surviving pipelines absorb their columns.

#include <algorithm>
#include <variant>

#include "exec_factories.hpp"
#include "lattice/arch/design_space.hpp"
#include "lattice/arch/spa.hpp"
#include "lattice/arch/wsa.hpp"
#include "lattice/arch/wsa_e.hpp"
#include "lattice/fault/fault.hpp"

namespace lattice::core::detail {

namespace {

using Machine =
    std::variant<arch::WsaPipeline, arch::WsaEPipeline, arch::SpaMachine>;

std::string_view machine_name(Backend backend) {
  switch (backend) {
    case Backend::Wsa: return "wsa";
    case Backend::WsaE: return "wsa_e";
    default: return "spa";
  }
}

Machine build_machine(const LatticeEngine::Config& c, const lgca::Rule& rule,
                      fault::FaultInjector* injector) {
  LATTICE_REQUIRE(c.boundary == lgca::Boundary::Null,
                  "pipelined backends require null boundaries");
  switch (c.backend) {
    case Backend::Wsa:
      return Machine(std::in_place_type<arch::WsaPipeline>, c.extent, rule,
                     c.pipeline_depth, c.wsa_width, /*t0=*/0, c.fast_kernel,
                     injector);
    case Backend::WsaE:
      return Machine(std::in_place_type<arch::WsaEPipeline>, c.extent, rule,
                     c.pipeline_depth, /*t0=*/0, c.fast_kernel, injector,
                     c.wsa_e_buffer);
    default:
      return Machine(std::in_place_type<arch::SpaMachine>, c.extent, rule,
                     c.spa_slice_width, c.pipeline_depth, /*t0=*/0, c.threads,
                     c.fast_kernel, injector);
  }
}

class MachineExec final : public BackendExec {
 public:
  MachineExec(const LatticeEngine::Config& config, const lgca::Rule& rule,
              fault::FaultInjector* injector)
      : BackendExec(machine_name(config.backend)),
        cfg_(config),
        depth_(config.pipeline_depth),
        injector_(injector),
        machine_(build_machine(config, rule, injector)) {}

  /// A machine computes at most its pipeline depth of generations per
  /// sweep; a shorter (ragged) pass runs only the leading stages.
  std::int64_t max_chunk(std::int64_t remaining) const noexcept override {
    return std::min(remaining, depth_);
  }

  void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                std::int64_t generation) override {
    std::visit(
        [&](auto& m) {
          m.set_t0(generation);
          state = m.run(state, static_cast<int>(chunk));
          stats_.ticks = m.stats().ticks;
          stats_.site_updates = m.stats().site_updates;
          stats_.buffer_sites = m.stats().buffer_sites;
        },
        machine_);
  }

  bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept override {
    // The machines' buffers and links take the machine-memory sources;
    // there is no plane-resident storage to corrupt. A stuck PE must be
    // one the machine has — (stage, lane) inside depth × PEs per stage
    // — or it would never be injected.
    std::int64_t lanes = 1;  // WSA-E: one PE per stage
    if (cfg_.backend == Backend::Wsa) lanes = cfg_.wsa_width;
    if (cfg_.backend == Backend::Spa) {
      lanes = cfg_.extent.width / cfg_.spa_slice_width;
    }
    for (const fault::StuckAt& s : plan.stuck) {
      if (s.stage < 0 || s.stage >= depth_ || s.lane < 0 || s.lane >= lanes) {
        return false;
      }
    }
    return !plan.arms_plane_memory();
  }

  bool try_degrade() override {
    if (cfg_.backend == Backend::Spa && injector_ != nullptr &&
        injector_->has_stuck()) {
      injector_->disable_stuck();
      return true;
    }
    return false;
  }

  void fill_report(PerformanceReport& report) const override {
    const double stream = 2.0 * cfg_.tech.bits_per_site;
    switch (cfg_.backend) {
      case Backend::Wsa:
        report.bandwidth_bits_per_tick = stream * cfg_.wsa_width;
        break;
      case Backend::WsaE:
        // Main memory touches only the chain ends: constant 2·D
        // bits/tick; the depth-scaled cost is the off-chip buffer.
        report.bandwidth_bits_per_tick = stream;
        report.offchip_buffer_sites =
            depth_ * arch::wsa_e::storage_sites_per_pe(cfg_.extent.width);
        report.offchip_buffer_bits_per_tick =
            static_cast<double>(depth_) *
            arch::wsa_e::buffer_bits_per_tick_per_pe(cfg_.tech);
        report.buffer_bandwidth_fraction =
            std::get<arch::WsaEPipeline>(machine_)
                .stats()
                .buffer_bandwidth_fraction();
        break;
      default:
        report.bandwidth_bits_per_tick =
            stream * static_cast<double>(cfg_.extent.width) /
            static_cast<double>(cfg_.spa_slice_width);
        break;
    }
  }

 private:
  LatticeEngine::Config cfg_;  // copied: the engine may be moved
  std::int64_t depth_;         // pipeline depth: stages, and the pass cap
  fault::FaultInjector* injector_;
  Machine machine_;
};

}  // namespace

std::unique_ptr<BackendExec> make_machine_exec(LatticeEngine::Config& config,
                                               const lgca::Rule& rule,
                                               fault::FaultInjector* injector) {
  if (config.backend == Backend::Spa && config.spa_slice_width == 0) {
    config.spa_slice_width =
        pick_spa_slice_width(config.tech, config.extent.width);
  }
  return std::make_unique<MachineExec>(config, rule, injector);
}

}  // namespace lattice::core::detail
