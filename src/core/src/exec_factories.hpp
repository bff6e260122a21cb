// Private per-backend executor factories, one per translation unit
// (exec_*.cpp). Only backend_exec.cpp's make_backend_exec() calls
// these; the classes themselves stay file-local to their TU.

#pragma once

#include <memory>

#include "lattice/core/backend_exec.hpp"

namespace lattice::core::detail {

/// Reference and Reference3.
std::unique_ptr<BackendExec> make_reference_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

/// BitPlane and BitPlane3.
std::unique_ptr<BackendExec> make_bitplane_exec(
    const LatticeEngine::Config& config, const lgca::Rule& rule,
    fault::FaultInjector* injector);

/// Wsa, WsaE and Spa. May normalize config in place (SPA's
/// spa_slice_width == 0 → §6.2 pick).
std::unique_ptr<BackendExec> make_machine_exec(LatticeEngine::Config& config,
                                               const lgca::Rule& rule,
                                               fault::FaultInjector* injector);

}  // namespace lattice::core::detail
