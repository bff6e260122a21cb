#include "lattice/arch/wsa_e.hpp"

#include <algorithm>
#include <cmath>

#include "lattice/obs/metrics.hpp"
#include "lattice/obs/trace.hpp"

namespace lattice::arch {

namespace {

struct WsaEObs {
  obs::MetricsRegistry::Id ticks = obs::counter_id("wsa_e.ticks");
  obs::MetricsRegistry::Id sites = obs::counter_id("wsa_e.site_updates");
  obs::MetricsRegistry::Id stalls = obs::counter_id("wsa_e.buffer_stalls");
  obs::MetricsRegistry::Id run_ns = obs::histogram_id("wsa_e.run_ns");
  static const WsaEObs& get() {
    static const WsaEObs ids;
    return ids;
  }
};

}  // namespace

WsaEPipeline::WsaEPipeline(Extent extent, const lgca::Rule& rule, int depth,
                           std::int64_t t0, bool fast_kernel,
                           fault::FaultInjector* fault, MemoryConfig buffer)
    : chain_(extent, rule, depth, /*width=*/1, t0, fast_kernel, fault),
      buffer_(buffer),
      stall_rate_(static_cast<std::size_t>(depth) + 1, -1.0) {}

double WsaEPipeline::stall_rate(int generations) {
  double& rate = stall_rate_[static_cast<std::size_t>(generations)];
  if (rate >= 0) return rate;
  // A stage's external buffer is two line FIFOs; per tick each sees a
  // head write at address p mod cap and a tail read at (p+1) mod cap.
  // cap is the line length plus slack, rounded up to even so the
  // head/tail pair always straddles a two-bank part. Every FIFO of
  // every stage runs this same pattern in lockstep, so the machine's
  // stall rate is one channel's stall rate.
  const Extent extent = chain_.extent();
  const std::int64_t cap = ((extent.width + 3) / 2) * 2;
  const std::int64_t window =
      std::min<std::int64_t>(extent.area() + chain_.latency(generations),
                             std::max<std::int64_t>(4 * cap, 1024));
  std::vector<std::vector<std::int64_t>> schedule(
      static_cast<std::size_t>(window));
  for (std::int64_t t = 0; t < window; ++t) {
    schedule[static_cast<std::size_t>(t)] = {t % cap, (t + 1) % cap};
  }
  BankedMemory channel(buffer_);
  const MemoryResult res = channel.service(schedule);
  rate = static_cast<double>(res.stalls) / static_cast<double>(window);
  return rate;
}

lgca::SiteLattice WsaEPipeline::run(const lgca::SiteLattice& in,
                                    int generations) {
  const obs::TraceSpan span("wsa_e.run");
  const obs::ScopedTimer run_timer(WsaEObs::get().run_ns);
  const std::int64_t ticks_before = chain_.stats().ticks;
  lgca::SiteLattice out = chain_.run(in, generations);
  const PipelineStats& chain = chain_.stats();

  // The off-chip channel's cost for this pass: 4 words per stage per
  // stream tick, and the measured per-tick stall surcharge of the
  // configured parts (zero with line_buffer_config()).
  const std::int64_t pass_ticks = chain.ticks - ticks_before;
  const auto stall_ticks = static_cast<std::int64_t>(std::llround(
      stall_rate(generations) * static_cast<double>(pass_ticks)));
  stats_.ticks += pass_ticks + stall_ticks;
  stats_.stream_ticks = chain.ticks;
  stats_.buffer_stall_ticks += stall_ticks;
  stats_.buffer_accesses += 4 * std::int64_t{generations} * pass_ticks;
  stats_.site_updates = chain.site_updates;
  stats_.mem_sites_read = chain.mem_sites_read;
  stats_.mem_sites_written = chain.mem_sites_written;
  stats_.interchip_sites = chain.interchip_sites;
  stats_.buffer_sites = chain.buffer_sites;
  obs::count(WsaEObs::get().ticks, pass_ticks + stall_ticks);
  obs::count(WsaEObs::get().sites, in.extent().area() * generations);
  obs::count(WsaEObs::get().stalls, stall_ticks);
  return out;
}

}  // namespace lattice::arch
