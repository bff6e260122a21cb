#include "lattice/arch/stream_stage.hpp"

#include <algorithm>
#include <bit>

#include "lattice/lgca/gas_rule.hpp"

namespace lattice::arch {

namespace {
constexpr std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return ((v + m - 1) / m) * m;
}
}  // namespace

StreamStage::StreamStage(Extent extent, const lgca::Rule& rule,
                         std::int64_t t, int batch,
                         std::int64_t lead_padding,
                         const lgca::CollisionLut* lut,
                         fault::FaultInjector* fault, int stage_index)
    : extent_(extent),
      rule_(&rule),
      lut_(lut),
      t_(t),
      batch_(batch),
      // batch is validated below; clamp here so the computation in the
      // initializer list cannot divide by zero first.
      delay_(round_up(extent.width + 1, batch > 0 ? batch : 1)),
      lead_(lead_padding),
      next_in_(-lead_padding),
      fault_(fault),
      stage_index_(stage_index) {
  LATTICE_REQUIRE(extent.width > 0 && extent.height > 0,
                  "StreamStage extent must be positive");
  LATTICE_REQUIRE(batch >= 1 && batch <= extent.width,
                  "StreamStage batch (P) must be in [1, lattice width]");
  LATTICE_REQUIRE(lead_padding >= 0, "lead padding must be >= 0");
  // Window reach: W+1 behind the oldest center plus the delay in front.
  ring_.assign(static_cast<std::size_t>(delay_ + 2 * extent.width + 4), 0);
  if (fault_ != nullptr) {
    meta_.assign(ring_.size(), 0);
    // Conservation is only defined for gases (collisions conserve
    // particles); generic rules fall back to parity detection alone.
    // The ledger is armed on both the fused-LUT and the rule path.
    const auto* gas = dynamic_cast<const lgca::GasRule*>(&rule);
    audit_.valid = gas != nullptr;
    if (gas != nullptr) topo_ = gas->model().topology();
  }
}

void StreamStage::reset(std::int64_t t) {
  t_ = t;
  next_in_ = -lead_;
  std::fill(ring_.begin(), ring_.end(), lgca::Site{0});
  if (fault_ != nullptr) {
    std::fill(meta_.begin(), meta_.end(), std::uint8_t{0});
    const bool valid = audit_.valid;
    audit_ = fault::StageAudit{};
    audit_.valid = valid;
  }
}

lgca::Site StreamStage::stream_value(std::int64_t pos) const noexcept {
  const auto cap = static_cast<std::int64_t>(ring_.size());
  const std::int64_t idx = ((pos % cap) + cap) % cap;
  const lgca::Site v = ring_[static_cast<std::size_t>(idx)];
  if (fault_ != nullptr) {
    // The word travels with the parity bit written from the true bus
    // value; a mismatch means the shift register decayed underneath us.
    std::uint8_t& m = meta_[static_cast<std::size_t>(idx)];
    if (((std::popcount(static_cast<unsigned>(v)) ^ m) & 1) != 0 &&
        (m & 2) == 0) {
      m |= 2;  // report each corrupted word once
      fault_->report_parity_error();
    }
  }
  return v;
}

lgca::Site StreamStage::store_guarded(std::int64_t pos, std::size_t idx,
                                      lgca::Site v) {
  lgca::Site stored = v;
  if (pos >= 0 && pos < extent_.area()) {
    if (audit_.valid) {
      const std::int64_t w = extent_.width;
      audit_.in_mass += lgca::particle_count(v);
      audit_.in_obstacles += lgca::is_obstacle(v) ? 1 : 0;
      audit_.outflow +=
          fault::site_outflow(v, {pos % w, pos / w}, extent_, topo_);
    }
    stored = fault_->corrupt_stored(t_, pos, v);
  }
  meta_[idx] = static_cast<std::uint8_t>(
      std::popcount(static_cast<unsigned>(v)) & 1);
  return stored;
}

lgca::Site StreamStage::emit_guarded(std::int64_t pos, int lane,
                                     lgca::Site u) {
  (void)pos;
  if (fault_->has_stuck()) u = fault_->apply_stuck(stage_index_, lane, u);
  if (audit_.valid) {
    audit_.out_mass += lgca::particle_count(u);
    audit_.out_obstacles += lgca::is_obstacle(u) ? 1 : 0;
  }
  return u;
}

lgca::Site StreamStage::update_at(std::int64_t pos) const {
  const std::int64_t w = extent_.width;
  const std::int64_t x = pos % w;
  const std::int64_t y = pos / w;
  if (lut_ != nullptr) {
    // Fused path: gather only the taps the gas actually reads, with the
    // same edge masking the window multiplexer applies, then one table
    // lookup. No Window build, no virtual dispatch.
    lgca::Site gathered = 0;
    const auto& taps = lut_->taps((y & 1) != 0);
    const int n = lut_->tap_count();
    for (int i = 0; i < n; ++i) {
      const auto tap = taps[static_cast<std::size_t>(i)];
      const std::int64_t nx = x + tap.dx;
      const std::int64_t ny = y + tap.dy;
      if (nx >= 0 && nx < w && ny >= 0 && ny < extent_.height) {
        gathered |= static_cast<lgca::Site>(
            stream_value(pos + tap.dy * w + tap.dx) & tap.bit);
      }
    }
    gathered |=
        static_cast<lgca::Site>(stream_value(pos) & lut_->center_mask());
    return lut_->collide(gathered, lgca::GasModel::chirality(x, y, t_));
  }
  lgca::Window win;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      // The window multiplexer masks accesses that would cross a row
      // edge or fall outside the lattice: null boundary.
      const std::int64_t nx = x + dx;
      const std::int64_t ny = y + dy;
      win.at(dx, dy) = (nx >= 0 && nx < w && ny >= 0 && ny < extent_.height)
                           ? stream_value(pos + dy * w + dx)
                           : lgca::Site{0};
    }
  }
  return rule_->apply(win, lgca::SiteContext{x, y, t_});
}

void StreamStage::tick(const lgca::Site* in, lgca::Site* out) {
  const auto cap = static_cast<std::int64_t>(ring_.size());
  for (int b = 0; b < batch_; ++b) {
    const std::int64_t pos = next_in_ + b;
    const auto idx = static_cast<std::size_t>(((pos % cap) + cap) % cap);
    lgca::Site v = in[b];
    if (fault_ != nullptr) v = store_guarded(pos, idx, v);
    ring_[idx] = v;
  }
  next_in_ += batch_;
  ++ticks_;

  const std::int64_t area = extent_.area();
  for (int b = 0; b < batch_; ++b) {
    const std::int64_t pos = next_in_ - batch_ + b - delay_;
    lgca::Site u = 0;
    if (pos >= 0 && pos < area) {
      u = update_at(pos);
      if (fault_ != nullptr) u = emit_guarded(pos, b, u);
    }
    out[b] = u;
  }
}

}  // namespace lattice::arch
