// The three engine workloads: one LatticeEngine advanced in fixed
// intervals, with the observable reads a simulation driver makes.
//
//   plane2d_hpp_4096   BitPlane, HPP, 4096², auto tiling, 20-gen intervals
//   guarded_fhp2_1024  BitPlane, FHP-II, 1024², parity shadow + transient
//                      plane flips, checkpoint_interval 4, 20-gen intervals
//   plane3d_cubic_256  BitPlane3, cubic gas, 256³, auto tiling, 16-gen
//                      intervals
//
// All periodic (so mass and momentum are exactly conserved) and all at
// threads = nproc. Every 5th interval reads state() and checks exact
// conservation; before the timed phase a prefix of the run is checked
// bit-exactly against the golden Reference / Reference3 engine.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/core/metrics_report.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/lgca3d/lattice3.hpp"
#include "lattice/obs/metrics.hpp"

namespace perfbench {

namespace {

using namespace lattice;
using core::Backend;
using core::LatticeEngine;

struct EngineSpec {
  Backend backend = Backend::BitPlane;
  Backend golden = Backend::Reference;
  lgca::GasKind gas = lgca::GasKind::HPP;
  std::int64_t nx = 0, ny = 0, nz = 1;
  std::int64_t interval = 20;  // generations per advance() call
  int tile_generations = 1;
  bool guarded = false;
  /// Generations of the run checked against the golden engine.
  std::int64_t golden_prefix = 0;
  int dim = 2;
};

constexpr int kObservableEvery = 5;  // intervals per state read
constexpr int kSetupReps = 5;
constexpr double kDensity = 0.3;

EngineSpec spec_for(const Options& opt) {
  EngineSpec s;
  if (opt.workload == "plane2d_hpp_4096") {
    s.gas = lgca::GasKind::HPP;
    s.nx = s.ny = opt.tiny ? 256 : 4096;
    s.tile_generations = 0;
    s.golden_prefix = 11;  // one depth-10 tile block plus a remainder
  } else if (opt.workload == "guarded_fhp2_1024") {
    s.gas = lgca::GasKind::FHP_II;
    s.nx = s.ny = opt.tiny ? 128 : 1024;
    s.guarded = true;
    s.golden_prefix = 20;
  } else {
    s.backend = Backend::BitPlane3;
    s.golden = Backend::Reference3;
    s.nx = s.ny = s.nz = opt.tiny ? 32 : 256;
    s.interval = 16;
    s.tile_generations = 0;
    s.golden_prefix = 2;
    s.dim = 3;
  }
  return s;
}

/// The fault scenario of guarded_fhp2_1024: the parity shadow plus a
/// transient plane-flip rate at which a few per cent of passes roll
/// back, drawn from the workload seed.
fault::FaultPlan fault_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = mix_seed(seed, 7);
  plan.parity_plane = true;
  plan.plane_flip_rate = 4e-7;
  return plan;
}

LatticeEngine::Config engine_config(const EngineSpec& s, unsigned threads,
                                    std::uint64_t seed, bool armed) {
  LatticeEngine::Config cfg;
  cfg.extent = {s.nx, s.ny};
  cfg.depth = s.nz;
  cfg.gas = s.gas;
  cfg.boundary = lgca::Boundary::Periodic;
  cfg.backend = s.backend;
  cfg.threads = threads;
  cfg.tile_generations = s.tile_generations;
  if (armed) {
    cfg.fault = fault_plan(seed);
    cfg.checkpoint_interval = 4;
  }
  return cfg;
}

void fill(LatticeEngine& engine, const EngineSpec& s, std::uint64_t seed) {
  if (s.dim == 3) {
    lgca3d::Lattice3 volume({s.nx, s.ny, s.nz}, lgca3d::Boundary3::Periodic);
    lgca3d::fill_random(volume, kDensity, seed);
    std::memcpy(engine.state().grid().data(), volume.data(),
                engine.state().site_count());
  } else {
    lgca::fill_random(engine.state(), engine.gas_model(), kDensity, seed,
                      /*rest_density=*/0.1);
  }
}

/// Exact conserved quantities of the engine's state: (mass, p) with p
/// the 2-D or 3-D momentum.
struct Conserved {
  std::int64_t mass = 0, px = 0, py = 0, pz = 0;
  friend bool operator==(const Conserved&, const Conserved&) = default;
};

class ObservableReader {
 public:
  explicit ObservableReader(const EngineSpec& s) : spec_(s) {
    if (s.dim == 3) {
      volume_ = lgca3d::Lattice3({s.nx, s.ny, s.nz},
                                 lgca3d::Boundary3::Periodic);
    }
  }

  Conserved read(const LatticeEngine& engine) {
    Conserved c;
    if (spec_.dim == 3) {
      std::memcpy(volume_.data(), engine.state().grid().data(),
                  engine.state().site_count());
      const lgca3d::Invariants3 inv = lgca3d::measure_invariants(volume_);
      c = {inv.mass, inv.momentum.x, inv.momentum.y, inv.momentum.z};
    } else {
      const lgca::Invariants inv =
          lgca::measure_invariants(engine.state(), engine.gas_model());
      c = {inv.mass, inv.px, inv.py, 0};
    }
    return c;
  }

 private:
  EngineSpec spec_;
  lgca3d::Lattice3 volume_;
};

std::string conserved_str(const Conserved& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "mass=%lld p=(%lld,%lld,%lld)",
                static_cast<long long>(c.mass), static_cast<long long>(c.px),
                static_cast<long long>(c.py), static_cast<long long>(c.pz));
  return buf;
}

}  // namespace

void run_engine_workload(const Options& opt, Result& r) {
  const EngineSpec spec = spec_for(opt);
  const unsigned threads = nproc();
  const std::int64_t sites = spec.nx * spec.ny * spec.nz;
  const std::uint64_t fill_seed = mix_seed(opt.seed, 1);
  Spans& spans = Spans::get();

  // ---- set-up: engine construction and initial fill, median of reps ----
  std::vector<double> setup_s;
  std::unique_ptr<LatticeEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const std::int64_t t0 = now_ns();
    {
      const SpanScope s("core.engine_setup");
      engine = std::make_unique<LatticeEngine>(
          engine_config(spec, threads, opt.seed, spec.guarded));
      fill(*engine, spec, fill_seed);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  ObservableReader reader(spec);
  const Conserved initial = reader.read(*engine);

  // ---- golden prefix, outside the timed phase (also warms the shared
  // pool, first-touches every page and captures the engine's initial
  // state) ----
  {
    LatticeEngine::Config gcfg = engine_config(spec, threads, 0, false);
    gcfg.backend = spec.golden;
    gcfg.tile_generations = 1;
    gcfg.fast_kernel = false;  // the semantic oracle, not the fused LUT
    LatticeEngine golden(gcfg);
    golden.state() = engine->state();
    ++r.attempted;
    const SpanScope s("core.golden_prefix");
    try {
      engine->advance(spec.golden_prefix);
      golden.advance(spec.golden_prefix);
      if (!(golden.state() == engine->state())) {
        r.fail("golden prefix: state differs from the " +
               std::string(spec.dim == 3 ? "Reference3" : "Reference") +
               " engine after " + std::to_string(spec.golden_prefix) +
               " generations");
      }
    } catch (const std::exception& e) {
      r.fail(std::string("golden prefix: ") + e.what());
    }
    r.note("golden prefix: " + std::to_string(spec.golden_prefix) +
           " generations checked bit-exactly");
  }

  // ---- timed phase ----
  // A traced run alternates untraced and traced quarters, so the span
  // cost (obs.trace_overhead_frac) is measured inside one run.
  const core::PerformanceReport before = engine->report();
  if (opt.trace) obs::MetricsRegistry::global().reset();
  const std::int64_t gen0 = engine->generation();
  const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<double> latency_ms;
  // Rates are medians over cycles of kObservableEvery intervals plus
  // their state read — the workload's repeating unit — so one noisy
  // stretch of the run moves the median, not the whole figure.
  std::vector<double> cycle_sites_per_s, cycle_req_per_s;
  std::int64_t cycle_ns = 0, cycle_updates = 0, cycle_calls = 0;
  std::int64_t mode_ns[2] = {0, 0};
  std::int64_t mode_updates[2] = {0, 0};
  std::int64_t reads = 0;
  const std::int64_t t_start = now_ns();
  for (std::int64_t i = 1; now_ns() - t_start < budget_ns; ++i) {
    const bool on =
        opt.trace && ((now_ns() - t_start) / (budget_ns / 4)) % 2 == 1;
    spans.set_enabled(on);
    const std::int64_t g0 = engine->generation();
    const std::int64_t t0 = now_ns();
    ++r.attempted;
    try {
      const SpanScope s("core.advance");
      engine->advance(spec.interval);
    } catch (const std::exception& e) {
      r.fail(std::string("advance: ") + e.what());
      break;
    }
    const std::int64_t t1 = now_ns();
    latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    if (engine->generation() != g0 + spec.interval) {
      r.fail("advance committed " + std::to_string(engine->generation() - g0) +
             " generations, asked for " + std::to_string(spec.interval));
    }
    if (i % kObservableEvery == 0) {
      const SpanScope s("lgca.observables");
      const Conserved now = reader.read(*engine);
      ++reads;
      if (!(now == initial)) {
        r.fail("conservation violated at generation " +
               std::to_string(engine->generation()) + ": " +
               conserved_str(now) + " vs " + conserved_str(initial));
      }
    }
    const std::int64_t ns = now_ns() - t0;
    const std::int64_t updates = (engine->generation() - g0) * sites;
    mode_ns[on] += ns;
    mode_updates[on] += updates;
    cycle_ns += ns;
    cycle_updates += updates;
    ++cycle_calls;
    if (i % kObservableEvery == 0) {
      cycle_sites_per_s.push_back(static_cast<double>(cycle_updates) * 1e9 /
                                  static_cast<double>(cycle_ns));
      cycle_req_per_s.push_back(static_cast<double>(cycle_calls) * 1e9 /
                                static_cast<double>(cycle_ns));
      cycle_ns = cycle_updates = cycle_calls = 0;
    }
  }
  if (cycle_sites_per_s.empty() && cycle_ns > 0) {  // shorter than a cycle
    cycle_sites_per_s.push_back(static_cast<double>(cycle_updates) * 1e9 /
                                static_cast<double>(cycle_ns));
    cycle_req_per_s.push_back(static_cast<double>(cycle_calls) * 1e9 /
                              static_cast<double>(cycle_ns));
  }
  const std::int64_t wall_ns = now_ns() - t_start;
  spans.set_enabled(opt.trace);
  const core::PerformanceReport after = engine->report();
  const obs::MetricsSnapshot obs_after = engine->snapshot().metrics;

  const double wall_s = static_cast<double>(wall_ns) * 1e-9;
  const std::int64_t committed = (engine->generation() - gen0) * sites;
  std::string samples = "advance() ms:";
  for (const double ms : latency_ms) {
    samples += " " + std::to_string(static_cast<int>(ms));
  }
  r.note(samples);
  r.note("timed: " + std::to_string(latency_ms.size()) + " advance() calls, " +
         std::to_string(reads) + " checked state reads, " +
         std::to_string(wall_s) + " s; rates are medians over " +
         std::to_string(cycle_sites_per_s.size()) + " cycles");

  if (!opt.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("sites_per_s", median(cycle_sites_per_s), "sites/s");
    r.add("req_per_s", median(cycle_req_per_s), "1/s");
    r.add("step_p50_ms", quantile(latency_ms, 0.50), "ms");
    r.add("step_p99_ms", quantile(latency_ms, 0.99), "ms");
    r.note("step percentiles over n=" + std::to_string(latency_ms.size()) +
           " advance() intervals; highest supported percentile p" +
           std::to_string(highest_supported_percentile(latency_ms.size())));
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- per-layer: what the timed phase's obs counters saw ----
  const double adv_wall_ns = (after.wall_seconds - before.wall_seconds) * 1e9;
  const auto share = [&](const char* h) {
    return adv_wall_ns > 0
               ? static_cast<double>(histogram_sum(obs_after, h)) / adv_wall_ns
               : 0.0;
  };
  r.add("core.pack_share", share("bitplane.pack_ns"), "frac");
  r.add("core.update_share", share("bitplane.update_ns"), "frac");
  r.add("core.unpack_share", share("bitplane.unpack_ns"), "frac");
  r.add("core.tile_depth", static_cast<double>(engine->chunk_quantum()),
        "count");
  r.add("common.pool_busy_share",
        static_cast<double>(pool_busy_ns(obs_after)) /
            (static_cast<double>(wall_ns) * threads),
        "frac");

  const std::int64_t all_updates = after.site_updates - before.site_updates;
  r.add("fault.injected",
        static_cast<double>(after.faults_injected - before.faults_injected),
        "count");
  r.add("fault.detected",
        static_cast<double>(after.faults_detected - before.faults_detected),
        "count");
  r.add("fault.rollbacks",
        static_cast<double>(after.rollbacks - before.rollbacks), "count");
  r.add("fault.checkpoints",
        static_cast<double>(after.checkpoints - before.checkpoints), "count");
  r.add("fault.useful_frac",
        all_updates > 0 ? static_cast<double>(committed) / all_updates : 0.0,
        "frac");
  r.add("fault.checkpoint_share",
        (after.checkpoint_seconds - before.checkpoint_seconds) / wall_s,
        "frac");

  // The same configuration at one thread, and (guarded) unarmed.
  const double interval_updates = static_cast<double>(spec.interval * sites);
  const double rate_n = interval_updates / (median(latency_ms) * 1e-3);
  const int reps = opt.tiny ? 2 : 3;
  {
    LatticeEngine one(engine_config(spec, 1, opt.seed, spec.guarded));
    one.restore(engine->checkpoint());
    const auto ns = static_cast<double>(timed_median(
        "core.advance_1thread", reps, [&] { one.advance(spec.interval); }));
    r.add("core.thread_scaling", rate_n / (interval_updates / (ns * 1e-9)),
          "ratio");
  }
  if (spec.guarded) {
    LatticeEngine bare(engine_config(spec, threads, opt.seed, false));
    bare.restore(engine->checkpoint());
    const auto ns = static_cast<double>(timed_median(
        "core.advance_unguarded", 3 * reps, [&] { bare.advance(spec.interval); }));
    r.add("fault.guard_ratio", rate_n / (interval_updates / (ns * 1e-9)),
          "ratio");
  } else {
    r.add("fault.guard_ratio", 0, "ratio");
  }

  ProbeShape shape;
  shape.dim = spec.dim;
  shape.threads = threads;
  shape.gas2 = static_cast<int>(spec.dim == 3 ? lgca::GasKind::HPP : spec.gas);
  shape.tile2 = spec.dim == 3 ? 0 : spec.tile_generations;
  if (spec.dim == 3) {
    // The 2-D probe at the volume's site count (256³ = 4096²).
    shape.side2 = opt.tiny ? 256 : 4096;
    shape.nx3 = spec.nx, shape.ny3 = spec.ny, shape.nz3 = spec.nz;
  } else {
    shape.side2 = spec.nx;
    set_probe_box(shape, sites);
  }
  const ProbeRates rates = run_layer_probes(opt, shape, r);
  const double kernel = spec.dim == 3 ? rates.kernel3_sites_per_s
                                      : rates.kernel2_sites_per_s;
  const double rate_off =
      mode_ns[0] > 0 ? static_cast<double>(mode_updates[0]) / mode_ns[0] : 0;
  const double rate_on =
      mode_ns[1] > 0 ? static_cast<double>(mode_updates[1]) / mode_ns[1] : 0;
  r.add("core.pass_efficiency", kernel > 0 ? rate_off * 1e9 / kernel : 0,
        "ratio");
  probe_ping_rtt(opt, r);
  r.add("obs.trace_overhead_frac", rate_off > 0 ? 1.0 - rate_on / rate_off : 0,
        "frac");
  r.add("serve.restore_frac", 0, "frac");
  r.add("serve.evicted", 0, "count");
  r.add("serve.restored", 0, "count");
  r.add("serve.quanta", 0, "count");
  r.add("serve.compute_share", 0, "frac");
  r.add("serve.quantum_sites_per_s", 0, "sites/s");
  r.add("serve.queue_depth_p50", 0, "count");
}

}  // namespace perfbench
