#include "volume3.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "lattice/common/error.hpp"
#include "lattice/lgca/reference.hpp"

namespace lattice::core::detail {

lgca3d::Extent3 extent3_of(const LatticeEngine::Config& config) {
  return {config.extent.width, config.extent.height, config.depth};
}

void golden_run(const LatticeEngine::Config& config, const lgca::Rule& rule,
                lgca::SiteLattice& state, std::int64_t generations,
                std::int64_t t0) {
  if (!backend_is_3d(config.backend)) {
    lgca::reference_run(state, rule, generations, t0);
    return;
  }
  const lgca3d::Extent3 extent = extent3_of(config);
  LATTICE_REQUIRE(state.extent() == lgca3d::flat_extent(extent),
                  "flat state does not match the 3-D extent");
  static_assert(sizeof(lgca::Site) == sizeof(lgca3d::Site),
                "the flat view assumes identical site encodings");
  // Step the flat bytes in place against one scratch volume: the
  // rasters coincide, so no Lattice3 copy of the state is needed.
  const lgca3d::Boundary3 boundary = lgca3d::to_boundary3(config.boundary);
  std::vector<lgca::Site> scratch(state.site_count());
  lgca::Site* cur = state.grid().data();
  lgca::Site* next = scratch.data();
  for (std::int64_t g = 0; g < generations; ++g) {
    lgca3d::reference_step(cur, next, extent, boundary, t0 + g);
    std::swap(cur, next);
  }
  if (cur != state.grid().data()) {
    std::memcpy(state.grid().data(), cur, state.site_count());
  }
}

}  // namespace lattice::core::detail
