#include "lattice/lgca/init.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "lattice/common/rng.hpp"
#include "lattice/common/thread_pool.hpp"

namespace lattice::lgca {

namespace {

/// Occupation probabilities must be actual probabilities; NaN would
/// silently sail through the clamped branches below.
void require_probability(double p, const char* what) {
  LATTICE_REQUIRE(std::isfinite(p) && p >= 0.0 && p <= 1.0,
                  std::string(what) + " must be a probability in [0, 1]");
}

/// Smallest fill that runs on the pool: ~0.5 ms of serial draws, well
/// above a dispatch. A 64² lattice (a served session) stays inline.
constexpr std::int64_t kParallelFillSites = 65536;

/// fill_rows' row_draws for the 2-D fillers: `per_site` draws for every
/// site of row y that is not an obstacle.
std::function<std::uint64_t(std::int64_t)> open_site_draws(
    const SiteLattice& lat, int per_site) {
  return [&lat, per_site](std::int64_t y) {
    const std::int64_t w = lat.extent().width;
    const Site* row = lat.grid().data() + y * w;
    return static_cast<std::uint64_t>(
        per_site *
        std::count_if(row, row + w, [](Site s) { return !is_obstacle(s); }));
  };
}

}  // namespace

void fill_rows(std::uint64_t seed, std::int64_t rows, std::int64_t row_sites,
               const std::function<std::uint64_t(std::int64_t)>& row_draws,
               const std::function<void(Pcg32&, std::int64_t)>& fill_row) {
  common::ThreadPool& pool = common::ThreadPool::shared();
  if (rows * row_sites < kParallelFillSites || pool.workers() == 0) {
    Pcg32 rng(seed);
    for (std::int64_t y = 0; y < rows; ++y) fill_row(rng, y);
    return;
  }
  const std::int64_t grain = std::max<std::int64_t>(
      1, kParallelFillSites / std::max<std::int64_t>(1, row_sites));
  // drawn[y] = draws before row y: per-row counts, then a prefix sum.
  std::vector<std::uint64_t> drawn(static_cast<std::size_t>(rows) + 1, 0);
  pool.parallel_for(rows, grain, [&](std::int64_t y0, std::int64_t y1) {
    for (std::int64_t y = y0; y < y1; ++y) {
      drawn[static_cast<std::size_t>(y) + 1] = row_draws(y);
    }
  });
  std::partial_sum(drawn.begin(), drawn.end(), drawn.begin());
  pool.parallel_for(rows, grain, [&](std::int64_t y0, std::int64_t y1) {
    Pcg32 rng(seed);
    rng.advance(drawn[static_cast<std::size_t>(y0)]);
    for (std::int64_t y = y0; y < y1; ++y) fill_row(rng, y);
  });
}

void fill_random(SiteLattice& lat, const GasModel& model, double density,
                 std::uint64_t seed, double rest_density) {
  require_probability(density, "density");
  require_probability(rest_density, "rest_density");
  const Extent e = lat.extent();
  const bool rest = model.has_rest_particle();
  fill_rows(seed, e.height, e.width,
            open_site_draws(lat, model.channels() + (rest ? 1 : 0)),
            [&](Pcg32& rng, std::int64_t y) {
              for (std::int64_t x = 0; x < e.width; ++x) {
                Site& s = lat.at({x, y});
                if (is_obstacle(s)) continue;
                Site v = 0;
                for (int d = 0; d < model.channels(); ++d) {
                  if (rng.next_bool(density)) v |= channel_bit(d);
                }
                if (rest && rng.next_bool(rest_density)) v |= kRestBit;
                s = v;
              }
            });
}

void fill_flow(SiteLattice& lat, const GasModel& model, double density,
               double bias, std::uint64_t seed) {
  require_probability(density, "density");
  LATTICE_REQUIRE(std::isfinite(bias) && std::abs(bias) <= 1.0,
                  "bias must be finite and in [-1, 1]");
  const Extent e = lat.extent();
  fill_rows(seed, e.height, e.width, open_site_draws(lat, model.channels()),
            [&](Pcg32& rng, std::int64_t y) {
              for (std::int64_t x = 0; x < e.width; ++x) {
                Site& s = lat.at({x, y});
                if (is_obstacle(s)) continue;
                Site v = 0;
                for (int d = 0; d < model.channels(); ++d) {
                  const int px = momentum_of(model.topology(), d).px;
                  double p = density;
                  if (px > 0) p += bias;
                  if (px < 0) p -= bias;
                  p = std::clamp(p, 0.0, 1.0);
                  if (rng.next_bool(p)) v |= channel_bit(d);
                }
                s = v;
              }
            });
}

void fill_shear(SiteLattice& lat, const GasModel& model, double density,
                double bias, std::uint64_t seed) {
  require_probability(density, "density");
  LATTICE_REQUIRE(std::isfinite(bias) && std::abs(bias) <= 1.0,
                  "bias must be finite and in [-1, 1]");
  const Extent e = lat.extent();
  fill_rows(seed, e.height, e.width, open_site_draws(lat, model.channels()),
            [&](Pcg32& rng, std::int64_t y) {
              const double row_bias =
                  bias * std::sin(2.0 * 3.141592653589793 *
                                  static_cast<double>(y) /
                                  static_cast<double>(e.height));
              for (std::int64_t x = 0; x < e.width; ++x) {
                Site& s = lat.at({x, y});
                if (is_obstacle(s)) continue;
                Site v = 0;
                for (int d = 0; d < model.channels(); ++d) {
                  const int px = momentum_of(model.topology(), d).px;
                  double p = density;
                  if (px > 0) p += row_bias;
                  if (px < 0) p -= row_bias;
                  p = std::clamp(p, 0.0, 1.0);
                  if (rng.next_bool(p)) v |= channel_bit(d);
                }
                s = v;
              }
            });
}

void add_obstacle_rect(SiteLattice& lat, Coord lo, Coord hi) {
  LATTICE_REQUIRE(lo.x <= hi.x && lo.y <= hi.y,
                  "obstacle rect corners must satisfy lo <= hi");
  const Extent e = lat.extent();
  for (std::int64_t y = std::max<std::int64_t>(lo.y, 0);
       y <= std::min(hi.y, e.height - 1); ++y) {
    for (std::int64_t x = std::max<std::int64_t>(lo.x, 0);
         x <= std::min(hi.x, e.width - 1); ++x) {
      lat.at({x, y}) = kObstacleBit;
    }
  }
}

void add_obstacle_disk(SiteLattice& lat, double cx, double cy, double r) {
  // A negative radius would still mark the disk (r² is positive); an
  // infinite center would mark nothing or everything. Reject both.
  LATTICE_REQUIRE(std::isfinite(cx) && std::isfinite(cy),
                  "obstacle disk center must be finite");
  LATTICE_REQUIRE(std::isfinite(r) && r >= 0.0,
                  "obstacle disk radius must be finite and >= 0");
  const Extent e = lat.extent();
  for (std::int64_t y = 0; y < e.height; ++y) {
    for (std::int64_t x = 0; x < e.width; ++x) {
      const double dx = static_cast<double>(x) - cx;
      const double dy = static_cast<double>(y) - cy;
      if (dx * dx + dy * dy <= r * r) lat.at({x, y}) = kObstacleBit;
    }
  }
}

void add_channel_walls(SiteLattice& lat) {
  const Extent e = lat.extent();
  add_obstacle_rect(lat, {0, 0}, {e.width - 1, 0});
  add_obstacle_rect(lat, {0, e.height - 1}, {e.width - 1, e.height - 1});
}

void add_pressure_pulse(SiteLattice& lat, const GasModel& model,
                        std::int64_t w) {
  LATTICE_REQUIRE(w >= 1, "pressure pulse width must be >= 1");
  const Extent e = lat.extent();
  const std::int64_t x0 = e.width / 2 - w / 2;
  const std::int64_t y0 = e.height / 2 - w / 2;
  Site all = 0;
  for (int d = 0; d < model.channels(); ++d) all |= channel_bit(d);
  for (std::int64_t y = y0; y < y0 + w; ++y) {
    for (std::int64_t x = x0; x < x0 + w; ++x) {
      if (lat.extent().contains({x, y}) && !is_obstacle(lat.at({x, y}))) {
        lat.at({x, y}) = all;
      }
    }
  }
}

}  // namespace lattice::lgca
