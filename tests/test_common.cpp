#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "lattice/common/grid.hpp"
#include "lattice/common/rng.hpp"

namespace lattice {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
  // Reference values from the published SplitMix64 algorithm.
  SplitMix64 g(0);
  EXPECT_EQ(g.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(g.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(g.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, DistinctSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Pcg32, DeterministicForFixedSeed) {
  Pcg32 a(42);
  Pcg32 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, AdvanceSkipsExactlyThatManyDraws) {
  for (const std::uint64_t n : {0ull, 1ull, 2ull, 7ull, 64ull, 1000ull,
                                123457ull}) {
    Pcg32 stepped(99, 5);
    for (std::uint64_t i = 0; i < n; ++i) stepped.next();
    Pcg32 jumped(99, 5);
    jumped.advance(n);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(stepped.next(), jumped.next()) << "n = " << n;
    }
  }
  // Jumps compose: 2^40 as two halves equals one jump.
  Pcg32 once(3);
  once.advance(std::uint64_t{1} << 40);
  Pcg32 twice(3);
  twice.advance(std::uint64_t{1} << 39);
  twice.advance(std::uint64_t{1} << 39);
  EXPECT_EQ(once.next(), twice.next());
}

TEST(Pcg32, StreamsAreIndependent) {
  Pcg32 a(42, 1);
  Pcg32 b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Pcg32, NextBelowRespectsBound) {
  Pcg32 g(7);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(g.next_below(bound), bound);
    }
  }
}

TEST(Pcg32, NextBelowCoversAllResidues) {
  Pcg32 g(11);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(g.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Pcg32, NextDoubleInUnitInterval) {
  Pcg32 g(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = g.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg32, NextDoubleIsRoughlyUniform) {
  Pcg32 g(5);
  double sum = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += g.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Pcg32, BernoulliExtremes) {
  Pcg32 g(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(g.next_bool(0.0));
    EXPECT_TRUE(g.next_bool(1.0));
  }
}

TEST(DeriveSeed, IndependentPerIndex) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.insert(derive_seed(123, i));
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(DeriveSeed, StableAcrossCalls) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 1));
}

TEST(Extent, ContainsAndArea) {
  constexpr Extent e{4, 3};
  EXPECT_EQ(e.area(), 12);
  EXPECT_TRUE(e.contains({0, 0}));
  EXPECT_TRUE(e.contains({3, 2}));
  EXPECT_FALSE(e.contains({4, 0}));
  EXPECT_FALSE(e.contains({0, 3}));
  EXPECT_FALSE(e.contains({-1, 0}));
}

TEST(LinearIndex, RoundTripsWithCoordOf) {
  constexpr Extent e{7, 5};
  for (std::size_t i = 0; i < 35; ++i) {
    EXPECT_EQ(linear_index(e, coord_of(e, i)), i);
  }
}

TEST(Wrap, HandlesNegativesAndMultiples) {
  EXPECT_EQ(wrap(-1, 8), 7);
  EXPECT_EQ(wrap(-8, 8), 0);
  EXPECT_EQ(wrap(-9, 8), 7);
  EXPECT_EQ(wrap(17, 8), 1);
  EXPECT_EQ(wrap(0, 8), 0);
}

TEST(Grid, FillAndEquality) {
  Grid<int> a({3, 2}, 5);
  Grid<int> b({3, 2}, 5);
  EXPECT_EQ(a, b);
  a.at({2, 1}) = 9;
  EXPECT_NE(a, b);
  a.fill(5);
  EXPECT_EQ(a, b);
}

TEST(Grid, RowMajorLayout) {
  Grid<int> g({4, 2});
  int v = 0;
  for (auto& x : g) x = v++;
  EXPECT_EQ(g.at({0, 0}), 0);
  EXPECT_EQ(g.at({3, 0}), 3);
  EXPECT_EQ(g.at({0, 1}), 4);
  EXPECT_EQ(g.at({3, 1}), 7);
}

TEST(Grid, RejectsNegativeExtent) {
  EXPECT_THROW(Grid<int>({-1, 2}), Error);
}

}  // namespace
}  // namespace lattice
