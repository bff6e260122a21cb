#include "lattice/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <thread>

namespace lattice::obs {

namespace {

/// Bucket for a recorded value: 0 collects v <= 0, bucket b in
/// [1, 62] collects [2^(b-1), 2^b), the last bucket collects the rest.
int bucket_of(std::int64_t v) noexcept {
  if (v <= 0) return 0;
  const int b = std::bit_width(static_cast<std::uint64_t>(v));
  return std::min(b, HistogramStats::kBuckets - 1);
}

std::uint64_t next_registry_serial() noexcept {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::Id register_name(std::vector<std::string>& names,
                                  std::string_view name, int capacity) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<MetricsRegistry::Id>(i);
  }
  if (names.size() >= static_cast<std::size_t>(capacity)) {
    return MetricsRegistry::kInvalidId;
  }
  names.emplace_back(name);
  return static_cast<MetricsRegistry::Id>(names.size() - 1);
}

}  // namespace

void HistogramStats::add(std::int64_t v) noexcept {
  min = count == 0 ? v : std::min(min, v);
  max = count == 0 ? v : std::max(max, v);
  ++count;
  sum += v;
  ++buckets[static_cast<std::size_t>(bucket_of(v))];
}

std::int64_t HistogramStats::quantile_ceiling(double p) const noexcept {
  if (count <= 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const auto target = static_cast<std::int64_t>(
      p * static_cast<double>(count - 1));
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen > target) {
      return b + 1 < kBuckets ? bucket_floor(b + 1) : max;
    }
  }
  return max;
}

std::int64_t MetricsSnapshot::counter_or(std::string_view name,
                                         std::int64_t fallback) const noexcept {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

std::int64_t MetricsSnapshot::gauge_or(std::string_view name,
                                       std::int64_t fallback) const noexcept {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return g.value;
  }
  return fallback;
}

const HistogramStats* MetricsSnapshot::find_histogram(
    std::string_view name) const noexcept {
  for (const HistogramStats& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Per-thread counter slots. Fixed-size so concurrent relaxed writers
/// never race a reallocation; owned by the registry so a snapshot can
/// outlive the writing thread.
struct MetricsRegistry::Shard {
  std::thread::id owner;
  std::array<std::atomic<std::int64_t>, kMaxCounters> v{};
};

/// One histogram's live accumulation state (all relaxed atomics).
struct MetricsRegistry::Histo {
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> min{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max{std::numeric_limits<std::int64_t>::min()};
  std::array<std::atomic<std::int64_t>, kBuckets> buckets{};

  void record(std::int64_t value) noexcept {
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(value, std::memory_order_relaxed);
    buckets[static_cast<std::size_t>(bucket_of(value))].fetch_add(
        1, std::memory_order_relaxed);
    std::int64_t cur = min.load(std::memory_order_relaxed);
    while (value < cur && !min.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
    cur = max.load(std::memory_order_relaxed);
    while (value > cur && !max.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  void reset() noexcept {
    count.store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
    min.store(std::numeric_limits<std::int64_t>::max(),
              std::memory_order_relaxed);
    max.store(std::numeric_limits<std::int64_t>::min(),
              std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

namespace {

/// One-entry TLS cache: (registry serial -> shard). The serial guards
/// against a stale pointer when a registry at the same address dies
/// and another is born (tests construct local registries).
struct TlsShardRef {
  std::uint64_t serial = 0;
  void* shard = nullptr;
};
thread_local TlsShardRef tls_shard_ref;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : serial_(next_registry_serial()), hists_(new Histo[kMaxHistograms]) {
  counter_names_.reserve(kMaxCounters);
  gauge_names_.reserve(kMaxGauges);
  hist_names_.reserve(kMaxHistograms);
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  return register_name(counter_names_, name, kMaxCounters);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  return register_name(gauge_names_, name, kMaxGauges);
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  return register_name(hist_names_, name, kMaxHistograms);
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() noexcept {
  if (tls_shard_ref.serial == serial_) {
    return *static_cast<Shard*>(tls_shard_ref.shard);
  }
  std::lock_guard<std::mutex> lk(mu_);
  const std::thread::id me = std::this_thread::get_id();
  for (const auto& s : shards_) {
    if (s->owner == me) {
      tls_shard_ref = {serial_, s.get()};
      return *s;
    }
  }
  shards_.push_back(std::make_unique<Shard>());
  shards_.back()->owner = me;
  tls_shard_ref = {serial_, shards_.back().get()};
  return *shards_.back();
}

void MetricsRegistry::add(Id c, std::int64_t delta) noexcept {
  if (c < 0 || c >= kMaxCounters) return;
  local_shard().v[static_cast<std::size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(Id g, std::int64_t v) noexcept {
  if (g < 0 || g >= kMaxGauges) return;
  gauges_[static_cast<std::size_t>(g)].store(v, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_add(Id g, std::int64_t delta) noexcept {
  if (g < 0 || g >= kMaxGauges) return;
  gauges_[static_cast<std::size_t>(g)].fetch_add(delta,
                                                 std::memory_order_relaxed);
}

void MetricsRegistry::record(Id h, std::int64_t v) noexcept {
  if (h < 0 || h >= kMaxHistograms) return;
  hists_[h].record(v);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);

  snap.counters.resize(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters[i].name = counter_names_[i];
    std::int64_t total = 0;
    for (const auto& s : shards_) {
      total += s->v[i].load(std::memory_order_relaxed);
    }
    snap.counters[i].value = total;
  }

  snap.gauges.resize(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges[i].name = gauge_names_[i];
    snap.gauges[i].value = gauges_[i].load(std::memory_order_relaxed);
  }

  snap.histograms.resize(hist_names_.size());
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    HistogramStats& out = snap.histograms[i];
    const Histo& h = hists_[i];
    out.name = hist_names_[i];
    out.count = h.count.load(std::memory_order_relaxed);
    out.sum = h.sum.load(std::memory_order_relaxed);
    out.min = out.count > 0 ? h.min.load(std::memory_order_relaxed) : 0;
    out.max = out.count > 0 ? h.max.load(std::memory_order_relaxed) : 0;
    for (int b = 0; b < kBuckets; ++b) {
      out.buckets[static_cast<std::size_t>(b)] =
          h.buckets[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
  }
  return snap;
}

void MetricsRegistry::reset() noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : shards_) {
    for (auto& c : s->v) c.store(0, std::memory_order_relaxed);
  }
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kMaxHistograms; ++i) hists_[i].reset();
}

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: pool workers may still be flushing counters
  // while static destructors run, and a destroyed registry would leave
  // their cached shard pointers dangling.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

}  // namespace lattice::obs
