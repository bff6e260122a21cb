// The banded 8×8 block transpose behind PlaneLattice::pack/unpack,
// checked against the single-site accessors (set_site / site) as the
// oracle: awkward widths (1, 63, 64, 65, 127, 4097) × thread counts
// {1, 3, 8} on lattices below one band grain, and a 4097×130 lattice
// above two grains, so the rows really split into bands at 3 and 8
// threads. pack must also leave the tail bits and both guard words
// zero even when the target held stale halo content, and unpack must
// ignore whatever the tail bits hold.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <tuple>

#include "lattice/lgca/plane_lattice.hpp"

namespace lattice::lgca {
namespace {

constexpr std::int64_t kHeight = 37;

SiteLattice random_sites(Extent e, Boundary b, std::uint32_t seed) {
  SiteLattice lat(e, b);
  std::mt19937 rng(seed);
  for (std::size_t i = 0; i < lat.site_count(); ++i) {
    lat[i] = static_cast<Site>(rng() & 0xff);
  }
  return lat;
}

/// Every payload, tail and guard word of every row set to all ones —
/// what a resident buffer may hold before it is repacked.
void dirty(PlaneLattice& planes) {
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    for (std::int64_t y = 0; y < planes.extent().height; ++y) {
      std::uint64_t* rp = planes.row(p, y);
      for (std::int64_t k = -1; k <= planes.words_per_row(); ++k) {
        rp[k] = ~std::uint64_t{0};
      }
    }
  }
}

/// Pack `sites` (extent e) into a dirtied buffer and unpack it into a
/// dirtied byte lattice on `threads` lanes, checking both directions
/// against the single-site oracle.
void check_round_trip(const SiteLattice& sites, unsigned threads) {
  const Extent e = sites.extent();
  const Boundary b = sites.boundary();
  PlaneLattice oracle(e, b);
  for (std::int64_t y = 0; y < e.height; ++y) {
    for (std::int64_t x = 0; x < e.width; ++x) {
      oracle.set_site({x, y}, sites.at({x, y}));
    }
  }

  PlaneLattice planes(e, b);
  dirty(planes);
  planes.pack(sites, threads);
  const std::int64_t words = planes.words_per_row();
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    for (std::int64_t y = 0; y < e.height; ++y) {
      const std::uint64_t* rp = planes.row(p, y);
      const std::uint64_t* op = oracle.row(p, y);
      for (std::int64_t k = 0; k < words; ++k) {
        ASSERT_EQ(rp[k], op[k]) << "plane " << p << " row " << y
                                << " word " << k;
      }
      ASSERT_EQ(rp[words - 1] & ~planes.tail_mask(), 0u) << "tail bits";
      ASSERT_EQ(rp[-1], 0u) << "left guard";
      ASSERT_EQ(rp[words], 0u) << "right guard";
    }
  }

  // Unpack reads only payload bits: stale tail content (a halo fill
  // under Periodic leaves wrapped sites there) must not leak out.
  planes.prepare_shift_halo();
  for (int p = 0; p < PlaneLattice::kPlanes; ++p) {
    for (std::int64_t y = 0; y < e.height; ++y) {
      planes.row(p, y)[words - 1] |= ~planes.tail_mask();
    }
  }
  SiteLattice out(e, b);
  out.fill(0xa5);
  planes.unpack(out, threads);
  for (std::int64_t y = 0; y < e.height; ++y) {
    for (std::int64_t x = 0; x < e.width; ++x) {
      ASSERT_EQ(out.at({x, y}), oracle.site({x, y}))
          << "site (" << x << ", " << y << ")";
    }
  }
  EXPECT_TRUE(out == sites);
}

using Param = std::tuple<std::int64_t, unsigned>;

class TransposeTest : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Widths, TransposeTest,
    ::testing::Combine(::testing::Values(1, 63, 64, 65, 127, 4097),
                       ::testing::Values(1u, 3u, 8u)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(TransposeTest, BlockPackMatchesSiteOracleAndRoundTrips) {
  const auto [width, threads] = GetParam();
  const Extent e{width, kHeight};
  for (const Boundary b : {Boundary::Null, Boundary::Periodic}) {
    SCOPED_TRACE(b == Boundary::Null ? "Null" : "Periodic");
    check_round_trip(
        random_sites(e, b, static_cast<std::uint32_t>(width) * 7 + 1),
        threads);
  }
}

TEST(TransposeBands, MultiBandPackMatchesSiteOracleAndRoundTrips) {
  // Above two grains, so 3 and 8 lanes cut the rows into 2+ bands, with
  // an awkward width whose last word holds one site.
  const Extent e{4097, 130};
  ASSERT_GT(e.area(), 2 * PlaneLattice::kTransposeGrainSites);
  for (const unsigned threads : {1u, 3u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    check_round_trip(random_sites(e, Boundary::Periodic, 11), threads);
  }
}

TEST(TransposeGrain, SmallLatticesMatchTheSingleThreadPack) {
  // Below the default grain the rows form one band whatever the thread
  // count; the planes are the single-thread pack's either way.
  const Extent e{65, 9};
  const SiteLattice sites = random_sites(e, Boundary::Null, 3);
  PlaneLattice a(e, Boundary::Null);
  PlaneLattice b(e, Boundary::Null);
  a.pack(sites, 8);
  b.pack(sites, 1);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.to_sites() == sites);
}

}  // namespace
}  // namespace lattice::lgca
