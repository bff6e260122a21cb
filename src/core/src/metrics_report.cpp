#include "lattice/core/metrics_report.hpp"

#include <array>
#include <string_view>

namespace lattice::core {

namespace {

// The disjoint top-level stage histograms. Everything else in the
// registry (wsa.run_ns, pool.task_ns, reference.band_ns, ...) nests
// inside one of these and would double-count if listed here.
constexpr std::array<std::string_view, 11> kPhaseHistograms = {
    "engine.pass.reference_ns", "engine.pass.wsa_ns",
    "engine.pass.spa_ns",       "engine.pass.bitplane_ns",
    "engine.pass.wsa_e_ns",     "engine.pass.reference3_ns",
    "engine.pass.bitplane3_ns", "engine.capture_ns",
    "engine.load_ns",           "engine.checkpoint_ns",
    "engine.restore_ns",
};

}  // namespace

double MetricsReport::phase_seconds() const noexcept {
  double total = 0;
  for (const MetricsPhase& p : phases) total += p.seconds;
  return total;
}

MetricsReport build_metrics_report(double wall_seconds) {
  MetricsReport report;
  report.wall_seconds = wall_seconds;
  if constexpr (obs::kEnabled) {
    report.metrics = obs::MetricsRegistry::global().snapshot();
    for (const std::string_view name : kPhaseHistograms) {
      const obs::HistogramStats* h = report.metrics.find_histogram(name);
      if (h == nullptr || h->count == 0) continue;
      report.phases.push_back(MetricsPhase{
          std::string(name), h->count, static_cast<double>(h->sum) * 1e-9});
    }
  }
  return report;
}

void metrics_report_to_json(const MetricsReport& report, obs::JsonWriter& w) {
  w.begin_object();
  w.field("wall_seconds", report.wall_seconds);
  w.field("phase_seconds", report.phase_seconds());
  w.key("phases").begin_array();
  for (const MetricsPhase& p : report.phases) {
    w.begin_object();
    w.field("name", p.name);
    w.field("count", p.count);
    w.field("seconds", p.seconds);
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  metrics_to_json(report.metrics, w);
  w.end_object();
}

}  // namespace lattice::core
