// Initializer geometry and image output details not covered by the
// physics suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "lattice/lgca/image_io.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"

namespace lattice::lgca {
namespace {

const GasModel& fhp() { return GasModel::get(GasKind::FHP_II); }

TEST(InitGeometry, DiskRadiusIsInclusive) {
  SiteLattice lat({21, 21}, Boundary::Null);
  add_obstacle_disk(lat, 10, 10, 3);
  EXPECT_TRUE(is_obstacle(lat.at({10, 10})));
  EXPECT_TRUE(is_obstacle(lat.at({13, 10})));   // exactly r
  EXPECT_FALSE(is_obstacle(lat.at({14, 10})));  // r+1
  EXPECT_TRUE(is_obstacle(lat.at({12, 12})));   // inside diagonally
  EXPECT_FALSE(is_obstacle(lat.at({13, 13})));
}

TEST(InitGeometry, RectClampsToLattice) {
  SiteLattice lat({8, 8}, Boundary::Null);
  add_obstacle_rect(lat, {-5, -5}, {2, 1});
  const Invariants inv = measure_invariants(lat, fhp());
  EXPECT_EQ(inv.obstacles, 3 * 2);
}

TEST(InitGeometry, ChannelWallsCoverTopAndBottomOnly) {
  SiteLattice lat({10, 6}, Boundary::Null);
  add_channel_walls(lat);
  for (std::int64_t x = 0; x < 10; ++x) {
    EXPECT_TRUE(is_obstacle(lat.at({x, 0})));
    EXPECT_TRUE(is_obstacle(lat.at({x, 5})));
  }
  for (std::int64_t y = 1; y < 5; ++y) {
    EXPECT_FALSE(is_obstacle(lat.at({3, y})));
  }
}

TEST(InitGeometry, PulseRespectsObstacles) {
  SiteLattice lat({17, 17}, Boundary::Null);
  add_obstacle_disk(lat, 8, 8, 1.2);
  add_pressure_pulse(lat, fhp(), 5);
  // The obstacle core must stay an obstacle, not become gas.
  EXPECT_TRUE(is_obstacle(lat.at({8, 8})));
  // But the pulse ring around it is populated.
  EXPECT_GT(measure_invariants(lat, fhp()).mass, 0);
}

TEST(FillShear, ZeroBiasMatchesUnbiasedStatistics) {
  SiteLattice lat({64, 64}, Boundary::Periodic);
  fill_shear(lat, fhp(), 0.3, 0.0, 31);
  const Invariants inv = measure_invariants(lat, fhp());
  // Net momentum should be small (no bias): |px| well under 5% of the
  // total particle count scale.
  EXPECT_LT(std::abs(inv.px), inv.mass / 10);
}

TEST(FillShear, OppositeRowsCarryOppositeMomentum) {
  SiteLattice lat({128, 64}, Boundary::Periodic);
  fill_shear(lat, fhp(), 0.3, 0.2, 41);
  const auto profile = momentum_profile_x(lat, fhp());
  // Row 16 is the +peak of the sine, row 48 the −peak.
  EXPECT_GT(profile[16], 0);
  EXPECT_LT(profile[48], 0);
  EXPECT_GT(profile[16], -profile[48] / 2);
}

TEST(FillShear, PreservesObstacles) {
  SiteLattice lat({32, 32}, Boundary::Periodic);
  add_obstacle_disk(lat, 16, 16, 4);
  const auto before = measure_invariants(lat, fhp()).obstacles;
  fill_shear(lat, fhp(), 0.4, 0.1, 3);
  EXPECT_EQ(measure_invariants(lat, fhp()).obstacles, before);
}

TEST(FillRandom, RestDensityControlsRestPopulation) {
  SiteLattice none({64, 64}, Boundary::Periodic);
  SiteLattice lots({64, 64}, Boundary::Periodic);
  fill_random(none, fhp(), 0.2, 5, 0.0);
  fill_random(lots, fhp(), 0.2, 5, 0.9);
  auto rest_count = [](const SiteLattice& lat) {
    int n = 0;
    for (std::size_t i = 0; i < lat.site_count(); ++i)
      n += has_rest(lat[i]);
    return n;
  };
  EXPECT_EQ(rest_count(none), 0);
  EXPECT_GT(rest_count(lots), 64 * 64 / 2);
}

// The serial stream every filler must reproduce byte for byte: one
// Pcg32(seed), row-major, obstacle sites skipped without drawing.
// `p(d, y)` is channel d's occupation probability on row y.
template <typename P>
SiteLattice serial_fill(SiteLattice lat, const GasModel& model,
                        std::uint64_t seed, double rest, const P& p) {
  Pcg32 rng(seed);
  for (std::int64_t y = 0; y < lat.extent().height; ++y) {
    for (std::int64_t x = 0; x < lat.extent().width; ++x) {
      Site& s = lat.at({x, y});
      if (is_obstacle(s)) continue;
      Site v = 0;
      for (int d = 0; d < model.channels(); ++d) {
        if (rng.next_bool(p(d, y))) v |= channel_bit(d);
      }
      if (rest >= 0 && model.has_rest_particle() && rng.next_bool(rest)) {
        v |= kRestBit;
      }
      s = v;
    }
  }
  return lat;
}

TEST(FillRandom, ParallelFillIsByteEqualToTheSerialStream) {
  // Above the 65536-site floor the fillers run row chunks on the pool,
  // each from the jumped-ahead stream. The pool takes rows / grain
  // chunks (grain = 65536 / width rows, at most one per lane), so these
  // heights at the odd width 1031 run 1, 2, 3 and 4 chunks; 257x255
  // stays below the floor (the serial path).
  const Extent extents[] = {{1031, 64}, {1031, 130}, {1031, 200},
                            {1031, 260}, {257, 255}};
  for (const Extent e : extents) {
    for (const GasKind kind : {GasKind::HPP, GasKind::FHP_II}) {
      const GasModel& model = GasModel::get(kind);
      for (int obstacles = 0; obstacles < 3; ++obstacles) {
        SiteLattice base(e, Boundary::Null);
        if (obstacles == 1) add_obstacle_rect(base, {3, 5}, {400, 40});
        if (obstacles == 2) add_obstacle_disk(base, 200.5, 30.0, 27.0);
        SCOPED_TRACE(testing::Message()
                     << e.width << "x" << e.height << " kind "
                     << static_cast<int>(kind) << " obstacles " << obstacles);
        SiteLattice got = base;
        fill_random(got, model, 0.3, 17, 0.2);
        EXPECT_TRUE(got == serial_fill(base, model, 17, 0.2,
                                       [](int, std::int64_t) { return 0.3; }))
            << "rest particles " << model.has_rest_particle();
        // fill_flow's and fill_shear's channel probability under an
        // x-bias, and fill_shear's bias on row y.
        const auto biased = [&](double bias, int d) {
          const int px = momentum_of(model.topology(), d).px;
          return std::clamp(0.3 + (px > 0 ? bias : px < 0 ? -bias : 0.0),
                            0.0, 1.0);
        };
        const auto shear = [&](std::int64_t y) {
          return 0.2 * std::sin(2.0 * 3.141592653589793 *
                                static_cast<double>(y) /
                                static_cast<double>(e.height));
        };
        got = base;
        fill_shear(got, model, 0.3, 0.2, 23);
        EXPECT_TRUE(got == serial_fill(base, model, 23, -1,
                                       [&](int d, std::int64_t y) {
                                         return biased(shear(y), d);
                                       }))
            << "fill_shear";
        got = base;
        fill_flow(got, model, 0.3, 0.1, 29);
        EXPECT_TRUE(got == serial_fill(base, model, 29, -1,
                                       [&](int d, std::int64_t) {
                                         return biased(0.1, d);
                                       }))
            << "fill_flow";
      }
    }
  }
}

// ---- image output ----

TEST(ImageIo, RawPgmDumpsBytesVerbatim) {
  SiteLattice lat({3, 2}, Boundary::Null);
  for (std::size_t i = 0; i < lat.site_count(); ++i)
    lat[i] = static_cast<Site>(40 + i);
  std::ostringstream os;
  write_raw_pgm(os, lat);
  const std::string s = os.str();
  const std::string header = "P5\n3 2\n255\n";
  ASSERT_EQ(s.size(), header.size() + 6);
  EXPECT_EQ(s.compare(0, header.size(), header), 0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(s[header.size() +
                                           static_cast<std::size_t>(i)]),
              40 + i);
  }
}

TEST(ImageIo, DensityPgmScalesObstaclesToWhite) {
  SiteLattice lat({2, 1}, Boundary::Null);
  lat.at({0, 0}) = kObstacleBit;
  lat.at({1, 0}) = 0;
  std::ostringstream os;
  write_density_pgm(os, lat, fhp());
  const std::string s = os.str();
  EXPECT_EQ(static_cast<unsigned char>(s[s.size() - 2]), 255);  // obstacle
  EXPECT_EQ(static_cast<unsigned char>(s[s.size() - 1]), 0);    // vacuum
}

TEST(ImageIo, FlowArrowsCoverAllOctants) {
  Grid<FlowCell> cells({8, 1});
  const double d = 0.7071;
  const FlowCell dirs[8] = {
      {1, 1, 0},    {1, d, -d},  {1, 0, -1},  {1, -d, -d},
      {1, -1, 0},   {1, -d, d},  {1, 0, 1},   {1, d, d}};
  for (int i = 0; i < 8; ++i) cells.at({i, 0}) = dirs[i];
  const std::string art = render_flow_ascii(cells);
  EXPECT_EQ(art, ">/^\\</v\\\n");
}

TEST(ImageIo, DensityRampIsMonotone) {
  SiteLattice lat({7, 1}, Boundary::Null);
  Site acc = 0;
  for (int d = 0; d < 6; ++d) {
    acc |= channel_bit(d);
    lat.at({d + 1, 0}) = acc;
  }
  const std::string art = render_density_ascii(lat, fhp());
  // Strictly non-decreasing glyph "darkness" along the ramp.
  static constexpr std::string_view kRamp = " .:-=+*%@";
  std::size_t prev = 0;
  for (std::size_t i = 0; i + 1 < art.size(); ++i) {  // skip trailing \n
    const std::size_t level = kRamp.find(art[i]);
    ASSERT_NE(level, std::string_view::npos);
    EXPECT_GE(level, prev);
    prev = level;
  }
}

// ---- PGM round trip and malformed-input rejection ----

TEST(ImageIo, RawPgmRoundTripsThroughReader) {
  SiteLattice lat({5, 4}, Boundary::Null);
  for (std::size_t i = 0; i < lat.site_count(); ++i)
    lat[i] = static_cast<Site>((i * 37 + 1) & 0xFF);
  std::ostringstream os;
  write_raw_pgm(os, lat);
  std::istringstream is(os.str());
  const SiteLattice back = read_raw_pgm(is, Boundary::Null);
  EXPECT_TRUE(back == lat);
}

TEST(ImageIo, ReaderAcceptsHeaderComments) {
  std::string data = "P5\n# a comment\n2 # trailing\n# another\n1\n255\n";
  data += '\x41';
  data += '\x07';
  std::istringstream is(data);
  const SiteLattice lat = read_raw_pgm(is);
  EXPECT_EQ(lat.at({0, 0}), 0x41);
  EXPECT_EQ(lat.at({1, 0}), 0x07);
}

TEST(ImageIo, ReaderRejectsMalformedInputs) {
  const auto reject = [](const std::string& data) {
    std::istringstream is(data);
    EXPECT_THROW((void)read_raw_pgm(is), Error) << "accepted: " << data;
  };
  reject("");                          // empty stream
  reject("P6\n2 1\n255\n ab");         // wrong magic (PPM)
  reject("P5\nx 1\n255\n a");          // non-numeric width
  reject("P5\n2\n255\n ab");           // missing height
  reject("P5\n0 4\n255\n");            // zero width
  reject("P5\n2 -1\n255\n");           // negative height
  reject("P5\n2 1\n65535\n ab");       // 16-bit maxval unsupported
  reject("P5\n99999999999999999999 1\n255\n x");  // overflowing dim
  // Dimensions that pass individual bounds but whose product is absurd.
  reject("P5\n1000000 1000000\n255\n x");
}

TEST(ImageIo, ReaderRejectsTruncatedPixelData) {
  SiteLattice lat({6, 3}, Boundary::Null);
  for (std::size_t i = 0; i < lat.site_count(); ++i)
    lat[i] = static_cast<Site>(i);
  std::ostringstream os;
  write_raw_pgm(os, lat);
  const std::string full = os.str();
  // Any proper prefix that cuts into the raster must throw, not return
  // a partially-initialized lattice.
  for (const std::size_t cut : {full.size() - 1, full.size() - 7}) {
    std::istringstream is(full.substr(0, cut));
    EXPECT_THROW((void)read_raw_pgm(is), Error);
  }
}

// ---- initializer precondition rejection ----

TEST(InitValidation, FillersRejectNonProbabilities) {
  SiteLattice lat({8, 8}, Boundary::Null);
  EXPECT_THROW(fill_random(lat, fhp(), -0.1, 1), Error);
  EXPECT_THROW(fill_random(lat, fhp(), 1.5, 1), Error);
  EXPECT_THROW(fill_random(lat, fhp(), 0.3, 1, 2.0), Error);
  EXPECT_THROW(fill_random(lat, fhp(), std::nan(""), 1), Error);
  EXPECT_THROW(fill_flow(lat, fhp(), 0.3, 1.5, 1), Error);
  EXPECT_THROW(fill_flow(lat, fhp(), 0.3, std::nan(""), 1), Error);
  EXPECT_THROW(fill_shear(lat, fhp(), -0.2, 0.1, 1), Error);
  EXPECT_THROW(fill_shear(lat, fhp(), 0.3, -1.5, 1), Error);
  // Boundary values are legal.
  fill_random(lat, fhp(), 0.0, 1, 1.0);
  fill_flow(lat, fhp(), 1.0, -1.0, 1);
}

TEST(InitValidation, GeometryRejectsDegenerateShapes) {
  SiteLattice lat({8, 8}, Boundary::Null);
  EXPECT_THROW(add_obstacle_rect(lat, {4, 2}, {2, 4}), Error);
  EXPECT_THROW(add_obstacle_disk(lat, 4, 4, -1.0), Error);
  EXPECT_THROW(add_obstacle_disk(lat, 4, 4, std::nan("")), Error);
  EXPECT_THROW(
      add_obstacle_disk(lat, std::numeric_limits<double>::infinity(), 4, 2),
      Error);
  EXPECT_THROW(add_pressure_pulse(lat, fhp(), 0), Error);
  // A valid call still works after the rejected ones.
  add_obstacle_disk(lat, 4, 4, 2.0);
  EXPECT_TRUE(is_obstacle(lat.at({4, 4})));
}

}  // namespace
}  // namespace lattice::lgca
