// Extensible wide-serial architecture system simulator (§5, §6.3).
//
// WSA-E is the WSA with its line buffer moved off chip: the shift
// register that holds the last ~two lattice rows no longer competes for
// die area, so the lattice length L is unbounded — the paper's answer
// to "what if the lattice does not fit?". The price is pins: each PE
// must stream its two externally buffered window rows in and out every
// tick, 4·D pins on top of the 2·D stream, and at the 1987 budget
// (Π = 72, D = 8) that leaves exactly one PE per chip (§6.3). Main
// memory still touches only the ends of the chain, so its demand is a
// constant 2·D bits/tick however deep the pipeline is.
//
// Functionally the machine is a width-1 WSA chain, and that is how it
// is built: a WsaEPipeline holds a width-1 WsaPipeline and runs every
// pass on it, so its output, stream ticks, site updates, memory and
// interchip traffic, buffer sites and fault draws are the chain's own.
// What this class adds is the off-chip buffer channel: each stage's two
// external line FIFOs are modeled as a banked memory part
// (arch/memory.hpp) seeing one write and one read per FIFO per tick.
// With line-buffer-class parts (the default: 2 banks, single-tick
// cycle) the channel keeps up and the paper's full-bandwidth
// assumption holds; configure slower parts and the lockstep machine
// visibly stalls, which is the §5 assumption made checkable.

#pragma once

#include <cstdint>
#include <vector>

#include "lattice/arch/memory.hpp"
#include "lattice/arch/technology.hpp"
#include "lattice/arch/wsa.hpp"

namespace lattice::arch {

/// Counters accumulated by a WSA-E run.
struct WsaEStats {
  std::int64_t ticks = 0;         // clock cycles, including buffer stalls
  std::int64_t stream_ticks = 0;  // cycles of the stall-free schedule
  std::int64_t site_updates = 0;
  std::int64_t mem_sites_read = 0;  // main memory (stream ends only)
  std::int64_t mem_sites_written = 0;
  std::int64_t interchip_sites = 0;
  /// Off-chip line-buffer words moved (4 per stage per stream tick:
  /// two FIFOs, each written and read once).
  std::int64_t buffer_accesses = 0;
  /// Ticks lost to buffer-channel bank conflicts (0 with the default
  /// line-buffer parts).
  std::int64_t buffer_stall_ticks = 0;
  /// Site storage held in the (now external) shift registers.
  std::int64_t buffer_sites = 0;

  double updates_per_tick() const {
    return ticks > 0 ? static_cast<double>(site_updates) /
                           static_cast<double>(ticks)
                     : 0.0;
  }

  /// Achieved fraction of the demanded buffer bandwidth: 1.0 when the
  /// external parts never stall the machine.
  double buffer_bandwidth_fraction() const {
    return ticks > 0 ? static_cast<double>(stream_ticks) /
                           static_cast<double>(ticks)
                     : 1.0;
  }
};

/// A k-stage WSA-E chain (one PE per chip, external line buffers) over
/// a fixed lattice extent. Stage state persists across runs, exactly
/// like WsaPipeline — it is a WsaPipeline.
class WsaEPipeline {
 public:
  /// `depth` chips (= generations per pass). `buffer` describes the
  /// external line-buffer parts on each stage's buffer channel; the
  /// default is line_buffer_config(). `fast_kernel` and `fault` are as
  /// in WsaPipeline.
  WsaEPipeline(Extent extent, const lgca::Rule& rule, int depth,
               std::int64_t t0 = 0, bool fast_kernel = false,
               fault::FaultInjector* fault = nullptr,
               MemoryConfig buffer = line_buffer_config());

  /// Stream `in` (null boundaries) through the chain; returns the
  /// lattice advanced by `depth` generations, bit-identical to WSA.
  lgca::SiteLattice run(const lgca::SiteLattice& in) {
    return run(in, depth());
  }

  /// A pass of `generations` (1..depth) generations on the leading
  /// stages, as WsaPipeline::run(in, generations).
  lgca::SiteLattice run(const lgca::SiteLattice& in, int generations);

  /// Retarget the next run() at generation `t0`.
  void set_t0(std::int64_t t0) noexcept { chain_.set_t0(t0); }

  const WsaEStats& stats() const noexcept { return stats_; }
  int depth() const noexcept { return chain_.depth(); }

  double modeled_rate(const Technology& tech) const {
    return stats_.updates_per_tick() * tech.clock_hz;
  }

  /// Default external parts: dual-bank, single-tick-cycle line-buffer
  /// chips. The head/tail access pair of a FIFO lands on both banks
  /// every tick, so the channel sustains full bandwidth — the §5
  /// assumption the paper makes implicitly.
  static constexpr MemoryConfig line_buffer_config() {
    return MemoryConfig{/*banks=*/2, /*bank_busy_ticks=*/1};
  }

 private:
  double stall_rate(int generations);

  WsaPipeline chain_;  // width 1: the §6.3 pin bill leaves one PE/chip
  MemoryConfig buffer_;
  WsaEStats stats_;

  /// Buffer stalls per stream tick in steady state, indexed by the
  /// pass's generation count and measured on first use by serving the
  /// FIFO address schedule through BankedMemory (the pattern is
  /// periodic, so a bounded window is exact up to rounding; the window
  /// covers at most one pass, whose length depends on the chain's
  /// latency). Negative until measured.
  std::vector<double> stall_rate_;
};

}  // namespace lattice::arch
