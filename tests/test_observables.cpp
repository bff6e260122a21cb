#include <gtest/gtest.h>

#include <sstream>

#include "lattice/common/rng.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/image_io.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::lgca {
namespace {

/// The per-site sums measure_invariants replaced with a histogram.
Invariants per_site_invariants(const SiteLattice& lat, const GasModel& m) {
  Invariants inv;
  for (std::size_t i = 0; i < lat.site_count(); ++i) {
    const Site s = lat[i];
    inv.mass += m.mass(s);
    inv.px += m.momentum(s).px;
    inv.py += m.momentum(s).py;
    if (is_obstacle(s)) ++inv.obstacles;
  }
  return inv;
}

TEST(Invariants, HistogramSumsEqualPerSiteSums) {
  std::uint64_t seed = 1;
  for (const GasKind kind : {GasKind::HPP, GasKind::FHP_I, GasKind::FHP_II,
                             GasKind::FHP_III}) {
    const GasModel& m = GasModel::get(kind);
    for (const Extent e : {Extent{1, 1}, Extent{3, 7}, Extent{63, 5},
                           Extent{65, 3}, Extent{129, 17}}) {
      SiteLattice lat(e, Boundary::Null);
      fill_random(lat, m, 0.4, ++seed, 0.2);
      add_obstacle_disk(lat, e.width / 2.0, e.height / 2.0, 2.5);
      EXPECT_EQ(measure_invariants(lat, m), per_site_invariants(lat, m))
          << gas_kind_name(kind) << " " << e.width << "x" << e.height;
      // Raw bytes: every one of the 256 states, stray bits included.
      SplitMix64 rng(++seed);
      for (std::size_t i = 0; i < lat.site_count(); ++i) {
        lat[i] = static_cast<Site>(rng.next() & 0xff);
      }
      EXPECT_EQ(measure_invariants(lat, m), per_site_invariants(lat, m))
          << gas_kind_name(kind) << " raw " << e.width << "x" << e.height;
    }
  }
}

TEST(Invariants, CountsSingleParticles) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({8, 8}, Boundary::Periodic);
  lat.at({1, 1}) = channel_bit(0);                       // px=+2
  lat.at({2, 2}) = channel_bit(3);                       // px=-2
  lat.at({3, 3}) = static_cast<Site>(channel_bit(1) | channel_bit(2));
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.mass, 4);
  EXPECT_EQ(inv.px, 0);
  EXPECT_EQ(inv.py, -2);  // NE + NW = (1,-1)+(-1,-1)
  EXPECT_EQ(inv.obstacles, 0);
}

TEST(Invariants, ObstaclesCountedSeparately) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({6, 6}, Boundary::Null);
  add_obstacle_rect(lat, {0, 0}, {5, 0});
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.obstacles, 6);
  EXPECT_EQ(inv.mass, 0);
}

TEST(Invariants, RestParticlesHaveMassButNoMomentum) {
  const GasModel& m = GasModel::get(GasKind::FHP_II);
  SiteLattice lat({4, 4}, Boundary::Periodic);
  lat.at({1, 1}) = kRestBit;
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.mass, 1);
  EXPECT_EQ(inv.px, 0);
  EXPECT_EQ(inv.py, 0);
}

TEST(CoarseGrain, DensityAveragesOverCells) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({8, 8}, Boundary::Periodic);
  // Fill the top-left 4×4 cell completely (4 particles/site).
  for (std::int64_t y = 0; y < 4; ++y)
    for (std::int64_t x = 0; x < 4; ++x)
      lat.at({x, y}) = 0x0f;
  const Grid<FlowCell> cells = coarse_grain(lat, m, 4);
  ASSERT_EQ(cells.extent(), (Extent{2, 2}));
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).density, 4.0);
  EXPECT_DOUBLE_EQ(cells.at({1, 0}).density, 0.0);
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).ux, 0.0);  // all four dirs cancel
}

TEST(CoarseGrain, VelocityReflectsNetFlow) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({4, 4}, Boundary::Periodic);
  for (std::int64_t y = 0; y < 4; ++y)
    for (std::int64_t x = 0; x < 4; ++x)
      lat.at({x, y}) = channel_bit(0);  // everyone E-bound
  const Grid<FlowCell> cells = coarse_grain(lat, m, 4);
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).ux, 2.0);  // momentum units per particle
  EXPECT_DOUBLE_EQ(cells.at({0, 0}).uy, 0.0);
}

TEST(CoarseGrain, RejectsNonPositiveCell) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({4, 4}, Boundary::Periodic);
  EXPECT_THROW(coarse_grain(lat, m, 0), Error);
}

TEST(Spread, PointMassHasZeroSpread) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({9, 9}, Boundary::Periodic);
  lat.at({4, 4}) = channel_bit(0);
  const SpreadStats st = measure_spread(lat, m, 4.0, 4.0);
  EXPECT_EQ(st.particles, 1);
  EXPECT_DOUBLE_EQ(st.mean_r2, 0.0);
}

TEST(Spread, AxisAlignedRingIsMaximallyAnisotropic) {
  // Four particles on the lattice axes: cos 4θ = 1 everywhere, the
  // fourth-order anisotropy saturates at 1 — the HPP signature.
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({9, 9}, Boundary::Periodic);
  lat.at({6, 4}) = channel_bit(0);
  lat.at({2, 4}) = channel_bit(0);
  lat.at({4, 6}) = channel_bit(0);
  lat.at({4, 2}) = channel_bit(0);
  const SpreadStats st = measure_spread(lat, m, 4.0, 4.0);
  EXPECT_EQ(st.particles, 4);
  EXPECT_DOUBLE_EQ(st.mean_r2, 4.0);
  EXPECT_NEAR(st.anisotropy, 1.0, 1e-12);
}

TEST(Spread, EightFoldRingIsIsotropicToFourthOrder) {
  // Four axis points plus four diagonal points at the same radius:
  // cos 4θ contributions cancel exactly.
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({11, 11}, Boundary::Periodic);
  // Axis points carry 4 particles each (full HPP site) so the two
  // families have equal Σ n·r⁴: +4·(4·16) from the axes cancels
  // −4·64 from the diagonals (where cos 4θ = −1).
  lat.at({7, 5}) = 0x0f;
  lat.at({3, 5}) = 0x0f;
  lat.at({5, 7}) = 0x0f;
  lat.at({5, 3}) = 0x0f;
  lat.at({7, 7}) = channel_bit(0);
  lat.at({3, 3}) = channel_bit(0);
  lat.at({7, 3}) = channel_bit(0);
  lat.at({3, 7}) = channel_bit(0);
  const SpreadStats st = measure_spread(lat, m, 5.0, 5.0);
  EXPECT_EQ(st.particles, 20);
  EXPECT_NEAR(st.anisotropy, 0.0, 1e-12);
}

TEST(FillRandom, HitsRequestedDensity) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({64, 64}, Boundary::Periodic);
  fill_random(lat, m, 0.5, 123);
  const Invariants inv = measure_invariants(lat, m);
  const double per_channel =
      static_cast<double>(inv.mass) / (64.0 * 64.0 * 6.0);
  EXPECT_NEAR(per_channel, 0.5, 0.02);
}

TEST(FillRandom, SkipsObstacles) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({16, 16}, Boundary::Periodic);
  add_obstacle_rect(lat, {0, 0}, {15, 15});
  fill_random(lat, m, 1.0, 5);
  EXPECT_EQ(measure_invariants(lat, m).mass, 0);
}

TEST(FillFlow, ProducesNetPositiveXMomentum) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({64, 64}, Boundary::Periodic);
  fill_flow(lat, m, 0.3, 0.15, 77);
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_GT(inv.px, 0);
}

TEST(PressurePulse, CentersAndFillsAllChannels) {
  const GasModel& m = GasModel::get(GasKind::FHP_I);
  SiteLattice lat({33, 33}, Boundary::Periodic);
  add_pressure_pulse(lat, m, 3);
  const Invariants inv = measure_invariants(lat, m);
  EXPECT_EQ(inv.mass, 9 * 6);
  EXPECT_EQ(inv.px, 0);
  EXPECT_EQ(inv.py, 0);
}

TEST(ImageIo, DensityPgmHasCorrectHeaderAndSize) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({7, 5}, Boundary::Periodic);
  std::ostringstream os;
  write_density_pgm(os, lat, m);
  const std::string s = os.str();
  EXPECT_EQ(s.rfind("P5\n7 5\n255\n", 0), 0u);
  EXPECT_EQ(s.size(), std::string("P5\n7 5\n255\n").size() + 7 * 5);
}

TEST(ImageIo, AsciiRenderMarksObstacles) {
  const GasModel& m = GasModel::get(GasKind::HPP);
  SiteLattice lat({3, 1}, Boundary::Null);
  lat.at({1, 0}) = kObstacleBit;
  const std::string art = render_density_ascii(lat, m);
  EXPECT_EQ(art, " # \n");
}

TEST(ImageIo, FlowAsciiShowsArrowsForFlow) {
  Grid<FlowCell> cells({2, 1});
  cells.at({0, 0}) = FlowCell{1.0, 2.0, 0.0};   // strong +x flow
  cells.at({1, 0}) = FlowCell{0.0, 0.0, 0.0};   // empty
  const std::string art = render_flow_ascii(cells);
  EXPECT_EQ(art, "> \n");
}

}  // namespace
}  // namespace lattice::lgca
