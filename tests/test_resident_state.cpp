// The resident-state contract of the bit-plane executors: the engine's
// byte lattice is a lazily synced view of the executor's planes
// (docs/ARCHITECTURE.md, "State residency"). Every case runs BitPlane
// (FHP-II) or BitPlane3 (cubic gas) next to a golden Reference /
// Reference3 twin, crossed with threads {1, 4}, tiling {off, auto} and
// boundary {Null, Periodic}, and checks that
//   * a write through the mutable state() between two advance() calls
//     takes effect (the next advance repacks exactly once);
//   * const reads, checkpoint() and verify_against_reference() leave the
//     bitplane.pack_ns count unchanged (no repack);
//   * checkpoint()/restore() round-trips are exact, into this engine and
//     into a fresh one;
//   * a guarded run's rollbacks restore the plane state, and oracle-
//     fallback runs stay bit-exact against the golden updater;
//   * verify_against_reference() holds throughout (up to a write
//     through state(), which no replay can know of).
// The 2-D lattice is narrow (one partial word per row, so the sanitizer
// jobs stay fast) but tall enough that auto tiling really tiles.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include "lattice/core/engine.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca3d/lattice3.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::core {
namespace {

constexpr std::int64_t kStep = 4;  // generations per advance()

using Param = std::tuple<Backend, unsigned, int, lgca::Boundary>;

bool is_3d(const Param& p) { return std::get<0>(p) == Backend::BitPlane3; }

LatticeEngine::Config config_for(const Param& p, Backend backend) {
  LatticeEngine::Config c;
  if (is_3d(p)) {
    c.extent = {40, 12};
    c.depth = 10;
  } else {
    c.extent = {24, 544};  // 544 KiB of planes a buffer: auto mode tiles
    c.gas = lgca::GasKind::FHP_II;
  }
  c.backend = backend;
  c.threads = std::get<1>(p);
  c.tile_generations = std::get<2>(p);
  c.boundary = std::get<3>(p);
  return c;
}

Backend golden_of(const Param& p) {
  return is_3d(p) ? Backend::Reference3 : Backend::Reference;
}

void seed(LatticeEngine& e, const Param& p, std::uint64_t s) {
  if (is_3d(p)) {
    const LatticeEngine::Config& c = e.config();
    lgca3d::Lattice3 vol({c.extent.width, c.extent.height, c.depth},
                         lgca3d::Boundary3::Null);
    vol.at({3, 4, 5}) = lgca3d::kObstacleBit;
    lgca3d::fill_random(vol, 0.3, s);
    std::memcpy(e.state().grid().data(), vol.data(), vol.site_count());
  } else {
    lgca::add_obstacle_disk(e.state(), 12, 40, 4);
    lgca::fill_random(e.state(), e.gas_model(), 0.3, s, 0.1);
  }
}

std::int64_t pack_count() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::HistogramStats* h = snap.find_histogram("bitplane.pack_ns");
  return h == nullptr ? 0 : h->count;
}

class ResidentStateTest : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, ResidentStateTest,
    ::testing::Combine(::testing::Values(Backend::BitPlane, Backend::BitPlane3),
                       ::testing::Values(1u, 4u), ::testing::Values(1, 0),
                       ::testing::Values(lgca::Boundary::Null,
                                         lgca::Boundary::Periodic)),
    [](const auto& info) {
      const Param& p = info.param;
      return std::string(is_3d(p) ? "bitplane3" : "bitplane") + "_t" +
             std::to_string(std::get<1>(p)) +
             (std::get<2>(p) == 1 ? "_untiled" : "_auto") +
             (std::get<3>(p) == lgca::Boundary::Null ? "_null" : "_periodic");
    });

TEST_P(ResidentStateTest, ByteViewSyncsLazilyAndExactly) {
  const Param p = GetParam();
  LatticeEngine e(config_for(p, std::get<0>(p)));
  LatticeEngine golden(config_for(p, golden_of(p)));
  seed(e, p, 17);
  golden.state() = std::as_const(e).state();
  const auto step = [&] {
    e.advance(kStep);
    golden.advance(kStep);
    EXPECT_TRUE(std::as_const(e).state() == golden.state())
        << "diverged at generation " << e.generation();
  };

  step();
  EXPECT_TRUE(e.verify_against_reference());
  if (std::get<2>(p) == 0 && !is_3d(p)) {
    EXPECT_GT(e.chunk_quantum(), 1) << "auto mode should tile this lattice";
  }

  // Const reads, checkpoints and verification read the view; none of
  // them hands bytes back to the planes.
  const std::int64_t packs = pack_count();
  (void)std::as_const(e).state();
  const EngineCheckpoint ckpt = e.checkpoint();
  EXPECT_TRUE(e.verify_against_reference());
  step();
  if constexpr (obs::kEnabled) EXPECT_EQ(pack_count(), packs);

  // A write through the mutable view lands in the next pass: flip the
  // first channel of a handful of sites on both engines. (From here on
  // verify_against_reference() no longer applies: its replay knows
  // nothing of writes through state().)
  for (const std::size_t i : {std::size_t{0}, std::size_t{333},
                              e.state().site_count() - 1}) {
    if ((e.state()[i] & lgca::kObstacleBit) != 0) continue;
    e.state()[i] = static_cast<lgca::Site>(e.state()[i] ^ 0x01);
    golden.state()[i] = static_cast<lgca::Site>(golden.state()[i] ^ 0x01);
  }
  step();
  if constexpr (obs::kEnabled) EXPECT_EQ(pack_count(), packs + 1);
  step();
  if constexpr (obs::kEnabled) EXPECT_EQ(pack_count(), packs + 1);

  // Checkpoint / restore: rewinding replays the same history, in this
  // engine and in a fresh one.
  const EngineCheckpoint mid = e.checkpoint();
  e.advance(kStep);
  const lgca::SiteLattice ahead = std::as_const(e).state();
  e.restore(mid);
  EXPECT_TRUE(std::as_const(e).state() == mid.state);
  e.advance(kStep);
  EXPECT_TRUE(std::as_const(e).state() == ahead);
  LatticeEngine fresh(config_for(p, std::get<0>(p)));
  fresh.restore(mid);
  fresh.advance(kStep);
  EXPECT_TRUE(std::as_const(fresh).state() == ahead);
  EXPECT_TRUE(fresh.verify_against_reference());

  // The earlier checkpoint predates the write, so restoring it rewinds
  // past the write as well.
  e.restore(ckpt);
  EXPECT_TRUE(e.checkpoint().state == ckpt.state);
  EXPECT_EQ(e.generation(), ckpt.generation);
}

/// A guarded engine under the benchmark's fault scenario shape: the
/// parity shadow plus transient plane flips (one draw per plane word —
/// 544 in 2-D, 120 in 3-D — per generation, or per tile block).
LatticeEngine::Config guarded(const Param& p, double flip_rate) {
  LatticeEngine::Config c = config_for(p, std::get<0>(p));
  c.fault.seed = 9;
  c.fault.parity_plane = true;
  c.fault.plane_flip_rate = flip_rate;
  c.checkpoint_interval = 4;
  return c;
}

TEST_P(ResidentStateTest, GuardedRollbacksRestoreThePlanes) {
  const Param p = GetParam();
  // A stuck word (plane 1, row 10) fails every attempt until the ladder
  // retires it, so every configuration rolls back, tiled or not; the
  // transient flips on top land between those rollbacks.
  LatticeEngine::Config c = guarded(p, is_3d(p) ? 1e-3 : 2.5e-4);
  c.fault.stuck_planes.push_back({1, 10, ~std::uint64_t{0}, ~std::uint64_t{0}});
  LatticeEngine e(c);
  LatticeEngine golden(config_for(p, golden_of(p)));
  seed(e, p, 23);
  golden.state() = std::as_const(e).state();
  for (int i = 0; i < 2; ++i) {
    e.advance(2 * kStep);
    golden.advance(2 * kStep);
    ASSERT_TRUE(std::as_const(e).state() == golden.state())
        << "diverged at generation " << e.generation();
  }
  EXPECT_TRUE(e.verify_against_reference());
  const PerformanceReport r = e.report();
  EXPECT_GT(r.rollbacks, 0);
  EXPECT_GT(r.remapped_slices, 0);
  EXPECT_EQ(r.oracle_passes, 0);
}

TEST_P(ResidentStateTest, OracleFallbackStaysBitExact) {
  const Param p = GetParam();
  // So many flips that no attempt is ever clean: every interval climbs
  // the ladder to the oracle, which runs on the byte view.
  LatticeEngine::Config c = guarded(p, 0.05);
  c.max_retries = 1;
  c.oracle_fallback = true;
  LatticeEngine e(c);
  LatticeEngine golden(config_for(p, golden_of(p)));
  seed(e, p, 29);
  golden.state() = std::as_const(e).state();
  e.advance(kStep);
  golden.advance(kStep);
  EXPECT_TRUE(std::as_const(e).state() == golden.state());
  EXPECT_TRUE(e.verify_against_reference());
  EXPECT_GT(e.report().oracle_passes, 0);
}

}  // namespace
}  // namespace lattice::core
