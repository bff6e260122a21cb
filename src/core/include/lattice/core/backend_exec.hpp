// BackendExec — the polymorphic executor layer behind LatticeEngine.
//
// Three executor classes, created by make_backend_exec() and owned by
// the engine: ReferenceExec (Reference, Reference3), BitPlaneExec
// (BitPlane, BitPlane3) and MachineExec (the WSA, WSA-E and SPA
// hardware simulators). Everything backend-specific lives here: kernel
// detection (CollisionLut / PlaneKernel), slice-width defaulting,
// boundary requirements, the per-pass obs histogram, fault-injector
// wiring, persistent pipeline/machine state, and the report fields
// only that backend knows (bandwidth, off-chip buffer ledger). An
// executor is ready to run once constructed: it builds its machine
// from the engine's config (extent, boundary), so there is no separate
// setup step. The engine itself never branches on the backend.
//
// State residency: a byte-native executor (Reference, WSA, SPA, WSA-E)
// advances the engine's byte lattice in place. A resident executor
// (the bit-plane backend) owns the state in its native layout between
// passes; the engine's byte lattice is then a lazily synced view, filled
// by store_state() only when a caller needs bytes and pushed back by
// load_state() only after a caller wrote them (docs/ARCHITECTURE.md).
//
// Adding a backend (docs/ARCHITECTURE.md): a new simulated machine is
// one more alternative of MachineExec's machine variant (it needs
// set_t0(), run(in, generations) and stats() with ticks/site_updates/
// buffer_sites); anything else is a new translation unit that
// subclasses BackendExec, implements run_pass(), and adds a case to
// the factory in backend_exec.cpp.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "lattice/core/engine.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::fault {
class FaultInjector;
struct FaultPlan;
}  // namespace lattice::fault

namespace lattice::core {

/// Counters an executor accumulates across passes. ticks stays 0 for
/// the software backends (no simulated clock); buffer_sites is a gauge
/// holding the most recent pass's datapath storage.
struct ExecStats {
  std::int64_t ticks = 0;
  std::int64_t site_updates = 0;
  std::int64_t buffer_sites = 0;
};

class BackendExec {
 public:
  virtual ~BackendExec();
  BackendExec(const BackendExec&) = delete;
  BackendExec& operator=(const BackendExec&) = delete;

  /// Advance the state by `chunk` generations, the first of which is
  /// `generation`: a byte-native executor advances `state` in place; a
  /// resident one advances its native state and leaves `state` alone.
  /// Counters accumulate into stats().
  virtual void run_pass(lgca::SiteLattice& state, std::int64_t chunk,
                        std::int64_t generation) = 0;

  /// Whether the executor keeps the state in its own layout between
  /// passes (false by default: byte-native). The engine calls the two
  /// conversions below only on a resident executor, and only when the
  /// other side is stale.
  virtual bool owns_state() const noexcept;
  /// Replace the native state with `state` (resident executors).
  virtual void load_state(const lgca::SiteLattice& state);
  /// Write the native state into `state`, whose extent and boundary
  /// match the engine's (resident executors).
  virtual void store_state(lgca::SiteLattice& state) const;

  /// Guarded-loop checkpoint and rollback of the native state into and
  /// from one checkpoint the executor keeps (resident executors; the
  /// engine checkpoints a byte-native executor's bytes itself), so
  /// neither direction converts layouts.
  virtual void save_snapshot();
  virtual void load_snapshot();

  const ExecStats& stats() const noexcept { return stats_; }

  /// The obs stage name: run_pass() time lands in the top-level
  /// "engine.pass.<name>_ns" phase histogram (docs/OBSERVABILITY.md).
  std::string_view name() const noexcept { return name_; }
  obs::MetricsRegistry::Id pass_histogram() const noexcept {
    return pass_ns_;
  }

  /// Whether this executor can realize every fault source `plan` arms.
  /// The machine-memory sources (buffer/link byte flips, stuck chips)
  /// need a simulated datapath; the plane-memory sources (plane-word
  /// flips, halo flips, stuck plane words, the parity shadow) need
  /// plane-resident site storage — no executor has both. The engine
  /// rejects an armed plan the executor cannot fully realize, so a
  /// fault run never silently under-injects. The base returns false
  /// for any armed plan.
  virtual bool supports_fault_plan(
      const fault::FaultPlan& plan) const noexcept;

  /// Largest chunk the executor wants for one pass, given `remaining`
  /// generations. The base takes everything: a software executor runs
  /// the whole request (or, guarded, the whole run to the next
  /// checkpoint) as one pass. Only MachineExec bounds it, by its
  /// pipeline depth — the machine computes at most depth generations
  /// per sweep. advance() and the guarded loop both size passes here.
  virtual std::int64_t max_chunk(std::int64_t remaining) const noexcept;

  /// Generation quantum of one pass: the engine's guarded loop rounds
  /// chunk sizes and the working checkpoint interval up to a multiple
  /// of this, so a rollback never has to resume mid-quantum. 1 for
  /// every backend except a temporally-tiled one, whose quantum is the
  /// tile depth (a tile block commits depth generations atomically).
  virtual std::int64_t chunk_quantum() const noexcept;

  /// Backend-specific PerformanceReport fields (bandwidth demand,
  /// off-chip buffer ledger). The engine fills the generic ones.
  virtual void fill_report(PerformanceReport& report) const;

  /// Last-resort recovery hook: after max_retries failed replays the
  /// engine asks the executor to reconfigure around a persistent fault
  /// (SPA remaps stuck chips out of the datapath). Returns true if the
  /// executor degraded and the pass should be retried.
  virtual bool try_degrade();

 protected:
  /// `name` keys the pass histogram.
  explicit BackendExec(std::string_view name);

  ExecStats stats_;

 private:
  std::string name_;
  obs::MetricsRegistry::Id pass_ns_;
};

/// Build the executor for config.backend. `config` is the engine's own
/// copy and may be normalized in place (e.g. SPA picks the default
/// slice width here); `injector` is null unless a fault plan is armed.
std::unique_ptr<BackendExec> make_backend_exec(LatticeEngine::Config& config,
                                               const lgca::Rule& rule,
                                               fault::FaultInjector* injector);

}  // namespace lattice::core
