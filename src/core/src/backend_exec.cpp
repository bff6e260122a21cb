#include "lattice/core/backend_exec.hpp"

#include "exec_factories.hpp"
#include "lattice/fault/fault.hpp"

namespace lattice::core {

BackendExec::BackendExec(std::string_view name)
    : name_(name),
      pass_ns_(obs::histogram_id("engine.pass." + std::string(name) + "_ns")) {}

BackendExec::~BackendExec() = default;

std::int64_t BackendExec::max_chunk(std::int64_t remaining) const noexcept {
  return remaining;
}

std::int64_t BackendExec::chunk_quantum() const noexcept { return 1; }

void BackendExec::fill_report(PerformanceReport& report) const {
  // Software backends: no simulated datapath, no modeled bandwidth.
  (void)report;
}

bool BackendExec::try_degrade() { return false; }

bool BackendExec::owns_state() const noexcept { return false; }

void BackendExec::load_state(const lgca::SiteLattice& state) {
  (void)state;
  LATTICE_ASSERT(false, "load_state on a byte-native executor");
}

void BackendExec::store_state(lgca::SiteLattice& state) const {
  (void)state;
  LATTICE_ASSERT(false, "store_state on a byte-native executor");
}

void BackendExec::save_snapshot() {
  LATTICE_ASSERT(false, "save_snapshot on a byte-native executor");
}

void BackendExec::load_snapshot() {
  LATTICE_ASSERT(false, "load_snapshot on a byte-native executor");
}

bool BackendExec::supports_fault_plan(
    const fault::FaultPlan& plan) const noexcept {
  return !plan.armed();
}

std::unique_ptr<BackendExec> make_backend_exec(LatticeEngine::Config& config,
                                               const lgca::Rule& rule,
                                               fault::FaultInjector* injector) {
  switch (config.backend) {
    case Backend::Reference:
    case Backend::Reference3:
      return detail::make_reference_exec(config, rule, injector);
    case Backend::BitPlane:
    case Backend::BitPlane3:
      return detail::make_bitplane_exec(config, rule, injector);
    case Backend::Wsa:
    case Backend::WsaE:
    case Backend::Spa:
      return detail::make_machine_exec(config, rule, injector);
  }
  LATTICE_REQUIRE(false, "unknown backend");
  return nullptr;
}

}  // namespace lattice::core
