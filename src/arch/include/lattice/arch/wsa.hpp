// Wide-serial architecture system simulator (§4, §6.1).
//
// A WSA system is k chips in a chain, each one P-wide pipeline stage;
// one pass of the site stream through the chain advances the lattice k
// generations. Main memory touches only the first stage's input and the
// last stage's output, which is the architecture's defining virtue: the
// bandwidth demand is 2·D·P bits per tick no matter how deep the
// pipeline is.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lattice/arch/stream_stage.hpp"
#include "lattice/arch/technology.hpp"

namespace lattice::arch {

/// Counters accumulated by a pipeline run.
struct PipelineStats {
  std::int64_t ticks = 0;            // clock cycles consumed
  std::int64_t site_updates = 0;     // rule applications performed
  std::int64_t mem_sites_read = 0;   // sites fetched from main memory
  std::int64_t mem_sites_written = 0;
  std::int64_t interchip_sites = 0;  // sites crossing chip-to-chip links
  std::int64_t buffer_sites = 0;     // total shift-register storage

  /// Sustained updates per tick (the R/F of §6).
  double updates_per_tick() const {
    return ticks > 0 ? static_cast<double>(site_updates) /
                           static_cast<double>(ticks)
                     : 0.0;
  }
};

/// A k-stage, P-wide serial pipeline over a fixed lattice extent.
class WsaPipeline {
 public:
  /// `depth` chips (= generations per pass), `width` PEs per chip.
  /// `fast_kernel` opts gas rules into the fused CollisionLut gather
  /// inside every stage (identical output; non-gas rules ignore it).
  /// A non-null `fault` arms injection and online detection in every
  /// stage (see StreamStage) and enables the pipeline-level
  /// particle-conservation checks at the end of each run.
  ///
  /// The stage chain (ring buffers, parity shadows) is built once here
  /// and persists across runs; each run() rearms it in place, so a
  /// long-lived pipeline pays construction and allocation exactly once.
  WsaPipeline(Extent extent, const lgca::Rule& rule, int depth, int width,
              std::int64_t t0 = 0, bool fast_kernel = false,
              fault::FaultInjector* fault = nullptr);

  /// Stream `in` (which must use null boundaries) through the pipeline
  /// and return the lattice advanced by `depth` generations.
  lgca::SiteLattice run(const lgca::SiteLattice& in) {
    return run(in, depth_);
  }

  /// A pass of `generations` (1..depth) generations: only the leading
  /// stages tick, so the pass costs what a fresh depth-`generations`
  /// pipeline would — the same state, counters and fault draws. A
  /// stage's lead padding depends on its index, not on the depth,
  /// which is what makes the prefix exact.
  lgca::SiteLattice run(const lgca::SiteLattice& in, int generations);

  /// Run `passes` consecutive passes (depth generations each).
  lgca::SiteLattice run_passes(const lgca::SiteLattice& in, int passes);

  /// Retarget the next run() at generation `t0` (stage generations are
  /// reassigned when the run rearms the chain). Lets one persistent
  /// pipeline advance a lattice pass after pass.
  void set_t0(std::int64_t t0) noexcept { t0_ = t0; }

  const PipelineStats& stats() const noexcept { return stats_; }
  Extent extent() const noexcept { return extent_; }
  int depth() const noexcept { return depth_; }
  int width() const noexcept { return width_; }

  /// Latency of the first `generations` stages, in stream positions:
  /// how far a pass of that many generations trails its input.
  std::int64_t latency(int generations) const noexcept {
    return generations * stages_.front().delay();
  }

  /// Modeled wall-clock update rate for a technology: updates/s
  /// sustained at tech.clock_hz given the measured updates_per_tick.
  double modeled_rate(const Technology& tech) const {
    return stats_.updates_per_tick() * tech.clock_hz;
  }

 private:
  Extent extent_;
  const lgca::Rule* rule_;
  const lgca::CollisionLut* lut_ = nullptr;  // non-null iff fast path on
  int depth_;
  int width_;
  std::int64_t t0_;
  fault::FaultInjector* fault_ = nullptr;
  PipelineStats stats_;

  // Persistent machine state, allocated once in the constructor:
  // stage s updates generation t0+s and sees latency(s) stream
  // positions of upstream latency, accumulated over stages 0..s-1.
  std::vector<StreamStage> stages_;
  std::vector<lgca::Site> bus_a_;
  std::vector<lgca::Site> bus_b_;
};

}  // namespace lattice::arch
