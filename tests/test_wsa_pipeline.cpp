// WSA pipeline simulator: bit-exact equivalence with the golden
// reference across rules, widths, depths and lattice shapes, plus the
// cycle/traffic accounting the paper's throughput model rests on.

#include <gtest/gtest.h>

#include "lattice/arch/wsa.hpp"
#include "lattice/arch/wsa_e.hpp"
#include "lattice/common/rng.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::arch {
namespace {

using lgca::Boundary;
using lgca::GasKind;
using lgca::GasModel;
using lgca::GasRule;
using lgca::SiteLattice;

SiteLattice random_gas(Extent e, GasKind kind, std::uint64_t seed) {
  SiteLattice lat(e, Boundary::Null);
  lgca::fill_random(lat, GasModel::get(kind), 0.35, seed, 0.2);
  return lat;
}

SiteLattice golden(const SiteLattice& in, const lgca::Rule& rule, int gens,
                   std::int64_t t0 = 0) {
  SiteLattice lat = in;
  lgca::reference_run(lat, rule, gens, t0);
  return lat;
}

// ---- equivalence sweeps (the correctness core of E9) ----

struct PipeCase {
  std::int64_t w;
  std::int64_t h;
  int depth;
  int width;  // P
};

class WsaEquivalenceTest : public ::testing::TestWithParam<PipeCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, WsaEquivalenceTest,
    ::testing::Values(PipeCase{8, 8, 1, 1}, PipeCase{8, 8, 1, 2},
                      PipeCase{8, 8, 3, 1}, PipeCase{16, 12, 2, 4},
                      PipeCase{16, 12, 4, 3}, PipeCase{13, 9, 2, 5},
                      PipeCase{24, 16, 5, 4}, PipeCase{7, 21, 3, 7},
                      PipeCase{32, 8, 2, 1}, PipeCase{9, 9, 6, 2}),
    [](const auto& info) {
      const PipeCase& c = info.param;
      return "w" + std::to_string(c.w) + "h" + std::to_string(c.h) + "d" +
             std::to_string(c.depth) + "p" + std::to_string(c.width);
    });

TEST_P(WsaEquivalenceTest, MatchesGoldenForFhpGas) {
  const PipeCase c = GetParam();
  const GasRule rule(GasKind::FHP_II);
  const SiteLattice in = random_gas({c.w, c.h}, GasKind::FHP_II, 42);

  WsaPipeline pipe({c.w, c.h}, rule, c.depth, c.width);
  const SiteLattice got = pipe.run(in);
  const SiteLattice want = golden(in, rule, c.depth);
  EXPECT_TRUE(got == want);
}

TEST_P(WsaEquivalenceTest, MatchesGoldenForLife) {
  const PipeCase c = GetParam();
  const lgca::LifeRule rule;
  SiteLattice in({c.w, c.h}, Boundary::Null);
  Pcg32 rng(7);
  for (std::size_t i = 0; i < in.site_count(); ++i)
    in[i] = static_cast<lgca::Site>(rng.next() & 1);

  WsaPipeline pipe({c.w, c.h}, rule, c.depth, c.width);
  EXPECT_TRUE(pipe.run(in) == golden(in, rule, c.depth));
}

TEST(WsaPipeline, MatchesGoldenForHppWithObstacles) {
  const GasRule rule(GasKind::HPP);
  SiteLattice in({20, 14}, Boundary::Null);
  lgca::add_obstacle_disk(in, 10, 7, 3);
  lgca::fill_random(in, GasModel::get(GasKind::HPP), 0.3, 5);

  WsaPipeline pipe({20, 14}, rule, 4, 2);
  EXPECT_TRUE(pipe.run(in) == golden(in, rule, 4));
}

TEST(WsaPipeline, MatchesGoldenForMedianFilter) {
  const lgca::MedianFilterRule rule;
  SiteLattice in({15, 11}, Boundary::Null);
  Pcg32 rng(9);
  for (std::size_t i = 0; i < in.site_count(); ++i)
    in[i] = static_cast<lgca::Site>(rng.next_below(256));

  WsaPipeline pipe({15, 11}, rule, 2, 3);
  EXPECT_TRUE(pipe.run(in) == golden(in, rule, 2));
}

TEST(WsaPipeline, MultiplePassesChainCorrectly) {
  // Two passes of depth 3 equal six golden generations: the time origin
  // must advance between passes so chirality draws line up.
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({12, 12}, GasKind::FHP_I, 11);

  WsaPipeline pipe({12, 12}, rule, 3, 2);
  const SiteLattice got = pipe.run_passes(in, 2);
  EXPECT_TRUE(got == golden(in, rule, 6));
}

TEST(WsaPipeline, NonZeroTimeOriginMatchesGolden) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({10, 10}, GasKind::FHP_I, 13);
  WsaPipeline pipe({10, 10}, rule, 2, 1, /*t0=*/17);
  EXPECT_TRUE(pipe.run(in) == golden(in, rule, 2, /*t0=*/17));
}

// ---- accounting ----

TEST(WsaPipeline, ReadsAndWritesExactlyTheLattice) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({16, 16}, GasKind::FHP_I, 3);
  WsaPipeline pipe({16, 16}, rule, 3, 2);
  (void)pipe.run(in);
  EXPECT_EQ(pipe.stats().mem_sites_read, 16 * 16);
  EXPECT_EQ(pipe.stats().mem_sites_written, 16 * 16);
  EXPECT_EQ(pipe.stats().site_updates, 16 * 16 * 3);
}

TEST(WsaPipeline, MemoryTrafficIndependentOfDepth) {
  // The whole point of pipelining (§3): deeper chains reuse the stream.
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({16, 16}, GasKind::FHP_I, 3);
  WsaPipeline shallow({16, 16}, rule, 1, 2);
  WsaPipeline deep({16, 16}, rule, 8, 2);
  (void)shallow.run(in);
  (void)deep.run(in);
  EXPECT_EQ(shallow.stats().mem_sites_read, deep.stats().mem_sites_read);
  EXPECT_EQ(shallow.stats().mem_sites_written,
            deep.stats().mem_sites_written);
  EXPECT_EQ(deep.stats().site_updates, 8 * shallow.stats().site_updates);
}

TEST(WsaPipeline, InterchipTrafficCountsOnlyInteriorLinks) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({8, 8}, GasKind::FHP_I, 3);
  WsaPipeline pipe({8, 8}, rule, 4, 1);
  (void)pipe.run(in);
  // 3 interior links, one site per tick each.
  EXPECT_EQ(pipe.stats().interchip_sites, 3 * pipe.stats().ticks);
}

TEST(WsaPipeline, WiderStagesFinishInFewerTicks) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({32, 32}, GasKind::FHP_I, 3);
  WsaPipeline narrow({32, 32}, rule, 1, 1);
  WsaPipeline wide({32, 32}, rule, 1, 4);
  (void)narrow.run(in);
  (void)wide.run(in);
  EXPECT_GT(narrow.stats().ticks, 3 * wide.stats().ticks);
}

TEST(WsaPipeline, UpdatesPerTickApproachesPTimesK) {
  // Steady-state throughput R = F·P·k (§6.1); finite lattices pay a
  // drain latency so the measured rate is slightly below.
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({64, 64}, GasKind::FHP_I, 3);
  WsaPipeline pipe({64, 64}, rule, 3, 2);
  (void)pipe.run(in);
  const double upt = pipe.stats().updates_per_tick();
  EXPECT_GT(upt, 0.85 * 3 * 2);
  EXPECT_LE(upt, 3.0 * 2.0);
}

TEST(WsaPipeline, BufferSitesAreTwoLinesPerStage) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({30, 10}, GasKind::FHP_I, 3);
  WsaPipeline pipe({30, 10}, rule, 2, 1);
  (void)pipe.run(in);
  // Each stage buffers ~2W sites — the paper's (2L+3)-ish window; our
  // implementation rounds up slightly for batching slack.
  EXPECT_GE(pipe.stats().buffer_sites, 2 * (2 * 30 + 3));
  EXPECT_LE(pipe.stats().buffer_sites, 2 * (2 * 30 + 40));
}

TEST(WsaPipeline, RejectsPeriodicBoundaries) {
  const GasRule rule(GasKind::HPP);
  SiteLattice in({8, 8}, Boundary::Periodic);
  WsaPipeline pipe({8, 8}, rule, 1, 1);
  EXPECT_THROW((void)pipe.run(in), Error);
}

TEST(WsaPipeline, RejectsBadShapes) {
  const GasRule rule(GasKind::HPP);
  EXPECT_THROW(WsaPipeline({8, 8}, rule, 0, 1), Error);
  EXPECT_THROW(WsaPipeline({8, 8}, rule, 1, 0), Error);
  SiteLattice wrong({9, 8}, Boundary::Null);
  WsaPipeline pipe({8, 8}, rule, 1, 1);
  EXPECT_THROW((void)pipe.run(wrong), Error);
}

TEST(WsaPipeline, ModeledRateUsesClock) {
  const GasRule rule(GasKind::FHP_I);
  const SiteLattice in = random_gas({32, 32}, GasKind::FHP_I, 3);
  WsaPipeline pipe({32, 32}, rule, 2, 2);
  (void)pipe.run(in);
  const Technology t = Technology::paper1987();
  EXPECT_DOUBLE_EQ(pipe.modeled_rate(t),
                   pipe.stats().updates_per_tick() * 10e6);
}

// ---- ragged passes on the persistent chain ----

// Counters one pass added: the cumulative fields as a difference, the
// buffer_sites gauge as it stands after the pass.
PipelineStats pass_delta(const PipelineStats& after,
                         const PipelineStats& before) {
  PipelineStats d;
  d.ticks = after.ticks - before.ticks;
  d.site_updates = after.site_updates - before.site_updates;
  d.mem_sites_read = after.mem_sites_read - before.mem_sites_read;
  d.mem_sites_written = after.mem_sites_written - before.mem_sites_written;
  d.interchip_sites = after.interchip_sites - before.interchip_sites;
  d.buffer_sites = after.buffer_sites;
  return d;
}

void expect_same_stats(const PipelineStats& got, const PipelineStats& want) {
  EXPECT_EQ(got.ticks, want.ticks);
  EXPECT_EQ(got.site_updates, want.site_updates);
  EXPECT_EQ(got.mem_sites_read, want.mem_sites_read);
  EXPECT_EQ(got.mem_sites_written, want.mem_sites_written);
  EXPECT_EQ(got.interchip_sites, want.interchip_sites);
  EXPECT_EQ(got.buffer_sites, want.buffer_sites);
}

struct PrefixCase {
  int width;   // P
  bool armed;  // buffer-flip plan attached
};

class WsaPrefixTest : public ::testing::TestWithParam<PrefixCase> {};

INSTANTIATE_TEST_SUITE_P(
    WidthsAndPlans, WsaPrefixTest,
    ::testing::Values(PrefixCase{1, false}, PrefixCase{1, true},
                      PrefixCase{4, false}, PrefixCase{4, true}),
    [](const auto& info) {
      return "p" + std::to_string(info.param.width) +
             (info.param.armed ? "Armed" : "Clean");
    });

TEST_P(WsaPrefixTest, PrefixRunEqualsFreshShallowPipeline) {
  // run(in, c) on a depth-4 chain that has already streamed a full
  // pass must be a fresh depth-c pipeline in every observable: state,
  // every counter, and (armed) the injected and detected faults.
  const PrefixCase pc = GetParam();
  const GasRule rule(GasKind::FHP_II);
  const Extent e{24, 16};
  const SiteLattice in = random_gas(e, GasKind::FHP_II, 21);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.buffer_flip_rate = pc.armed ? 2e-3 : 0.0;
  fault::FaultInjector persistent_inj(plan);
  WsaPipeline persistent(e, rule, 4, pc.width, /*t0=*/0, /*fast_kernel=*/true,
                         pc.armed ? &persistent_inj : nullptr);
  (void)persistent.run(in);
  for (int c = 1; c < 4; ++c) {
    const std::int64_t t0 = 4 + 3 * c;
    fault::FaultInjector fresh_inj(plan);
    WsaPipeline fresh(e, rule, c, pc.width, t0, /*fast_kernel=*/true,
                      pc.armed ? &fresh_inj : nullptr);
    const SiteLattice want = fresh.run(in);

    const PipelineStats before = persistent.stats();
    const fault::FaultCounters faults_before = persistent_inj.counters();
    persistent.set_t0(t0);
    const SiteLattice got = persistent.run(in, c);

    EXPECT_TRUE(got == want) << "c=" << c;
    expect_same_stats(pass_delta(persistent.stats(), before), fresh.stats());
    EXPECT_EQ(persistent_inj.counters().injected() - faults_before.injected(),
              fresh_inj.counters().injected())
        << "c=" << c;
    EXPECT_EQ(persistent_inj.counters().detected() - faults_before.detected(),
              fresh_inj.counters().detected())
        << "c=" << c;
    if (!pc.armed) EXPECT_TRUE(got == golden(in, rule, c, t0));
  }
  if (pc.armed) EXPECT_GT(persistent_inj.counters().injected(), 0);
}

TEST(WsaPipeline, RejectsPassesOutsideTheChain) {
  const GasRule rule(GasKind::HPP);
  const SiteLattice in({8, 8}, Boundary::Null);
  WsaPipeline pipe({8, 8}, rule, 2, 1);
  EXPECT_THROW((void)pipe.run(in, 0), Error);
  EXPECT_THROW((void)pipe.run(in, 3), Error);
}

// ---- WSA-E is a width-1 WSA chain plus the off-chip buffer ledger ----

TEST(WsaEPipeline, CountersAreTheWidthOneChainsPlusBufferStalls) {
  // Single-bank parts with a 2-tick cycle stall the lockstep machine;
  // everything but the stall surcharge is the width-1 chain's.
  const GasRule rule(GasKind::FHP_II);
  const Extent e{20, 14};
  const SiteLattice in = random_gas(e, GasKind::FHP_II, 5);
  WsaEPipeline wsa_e(e, rule, 3, /*t0=*/0, /*fast_kernel=*/true, nullptr,
                     MemoryConfig{/*banks=*/1, /*bank_busy_ticks=*/2});
  WsaPipeline wsa(e, rule, 3, /*width=*/1, /*t0=*/0, /*fast_kernel=*/true);
  std::int64_t t0 = 0;
  std::int64_t accesses = 0;
  for (const int c : {3, 2, 3, 1}) {
    wsa_e.set_t0(t0);
    wsa.set_t0(t0);
    const std::int64_t ticks_before = wsa.stats().ticks;
    EXPECT_TRUE(wsa_e.run(in, c) == wsa.run(in, c)) << "c=" << c;
    accesses += 4 * c * (wsa.stats().ticks - ticks_before);
    t0 += c;
  }
  const WsaEStats& s = wsa_e.stats();
  const PipelineStats& w = wsa.stats();
  EXPECT_GT(s.buffer_stall_ticks, 0);
  EXPECT_EQ(s.stream_ticks, w.ticks);
  EXPECT_EQ(s.ticks, w.ticks + s.buffer_stall_ticks);
  EXPECT_EQ(s.site_updates, w.site_updates);
  EXPECT_EQ(s.mem_sites_read, w.mem_sites_read);
  EXPECT_EQ(s.mem_sites_written, w.mem_sites_written);
  EXPECT_EQ(s.interchip_sites, w.interchip_sites);
  EXPECT_EQ(s.buffer_sites, w.buffer_sites);
  EXPECT_EQ(s.buffer_accesses, accesses);
  EXPECT_LT(s.buffer_bandwidth_fraction(), 1.0);
}

TEST(WsaEPipeline, PrefixRunEqualsFreshShallowChainWithStalls) {
  // A deep chain on a small lattice: a full pass is longer than the
  // stall-measurement window and a one- or two-stage pass is shorter,
  // so the stall surcharge of a prefix pass must come from a rate
  // measured at the prefix's own pass length, as a fresh chain's does.
  const GasRule rule(GasKind::FHP_II);
  const Extent e{20, 10};
  const SiteLattice in = random_gas(e, GasKind::FHP_II, 6);
  const MemoryConfig slow{/*banks=*/1, /*bank_busy_ticks=*/2};
  WsaEPipeline persistent(e, rule, 40, 0, true, nullptr, slow);
  (void)persistent.run(in);
  for (const int c : {1, 2}) {
    const WsaEStats before = persistent.stats();
    persistent.set_t0(9);
    WsaEPipeline fresh(e, rule, c, /*t0=*/9, true, nullptr, slow);
    EXPECT_TRUE(persistent.run(in, c) == fresh.run(in)) << "c=" << c;
    const WsaEStats& after = persistent.stats();
    EXPECT_GT(fresh.stats().buffer_stall_ticks, 0);
    EXPECT_EQ(after.ticks - before.ticks, fresh.stats().ticks) << "c=" << c;
    EXPECT_EQ(after.stream_ticks - before.stream_ticks,
              fresh.stats().stream_ticks)
        << "c=" << c;
    EXPECT_EQ(after.buffer_stall_ticks - before.buffer_stall_ticks,
              fresh.stats().buffer_stall_ticks)
        << "c=" << c;
    EXPECT_EQ(after.buffer_accesses - before.buffer_accesses,
              fresh.stats().buffer_accesses)
        << "c=" << c;
    EXPECT_EQ(after.buffer_sites, fresh.stats().buffer_sites) << "c=" << c;
  }
}

}  // namespace
}  // namespace lattice::arch
