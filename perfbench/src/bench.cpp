#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_map>

#include "lattice/obs/json.hpp"

namespace perfbench {

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

// ---- spans ----

namespace {

thread_local std::int64_t tl_current_span = 0;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Spans& Spans::get() {
  static Spans spans;
  return spans;
}

std::int64_t Spans::open() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Spans::close(const Span& s) {
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

SpanScope::SpanScope(const char* name, std::int64_t request) {
  Spans& spans = Spans::get();
  if (!spans.enabled()) return;
  live_ = true;
  span_.name = name;
  span_.id = spans.open();
  span_.parent = tl_current_span;
  span_.request = request;
  span_.thread = thread_index();
  tl_current_span = span_.id;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!live_) return;
  span_.end_ns = now_ns();
  tl_current_span = span_.parent;
  Spans::get().close(span_);
}

std::vector<std::string> Spans::waterfall() const {
  struct Row {
    std::int64_t count = 0;
    std::int64_t total = 0;
    std::int64_t self = 0;
  };
  std::map<std::string, Row> rows;
  const std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<std::int64_t, const Span*> by_id;
  for (const Span& s : spans_) by_id[s.id] = &s;
  for (const Span& s : spans_) {
    Row& row = rows[s.name];
    const std::int64_t d = s.end_ns - s.start_ns;
    ++row.count;
    row.total += d;
    row.self += d;
  }
  // Children nest on their parent's thread, so they never overlap each
  // other: self time is the parent's duration minus theirs.
  for (const Span& s : spans_) {
    const auto it = by_id.find(s.parent);
    if (it != by_id.end()) rows[it->second->name].self -= s.end_ns - s.start_ns;
  }
  std::vector<std::string> out;
  char line[200];
  std::snprintf(line, sizeof line, "%-24s %9s %12s %12s", "span", "count",
                "total_ms", "self_ms");
  out.emplace_back(line);
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "%-24s %9lld %12.3f %12.3f",
                  name.c_str(), static_cast<long long>(row.count),
                  static_cast<double>(row.total) * 1e-6,
                  static_cast<double>(row.self) * 1e-6);
    out.emplace_back(line);
  }
  return out;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  lattice::obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  {
    const std::lock_guard<std::mutex> lk(mu_);
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", s.name);
      w.field("ph", "X");
      w.field("ts", static_cast<double>(s.start_ns) * 1e-3);
      w.field("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      w.field("pid", static_cast<std::int64_t>(1));
      w.field("tid", static_cast<std::int64_t>(s.thread));
      w.key("args").begin_object();
      w.field("id", s.id);
      w.field("parent", s.parent);
      w.field("request", s.request);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.write_file(path);
}

// ---- statistics ----

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double highest_supported_percentile(std::size_t n) {
  if (n < 10) return 0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

// ---- host ----

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return v;
  }
  return 0;
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::int64_t histogram_sum(const lattice::obs::MetricsSnapshot& m,
                           const char* name) {
  const lattice::obs::HistogramStats* h = m.find_histogram(name);
  return h != nullptr ? h->sum : 0;
}

std::int64_t pool_busy_ns(const lattice::obs::MetricsSnapshot& m) {
  std::int64_t busy = 0;
  for (const lattice::obs::CounterValue& c : m.counters) {
    if (c.name.rfind("pool.worker.", 0) == 0 ||
        c.name == "pool.caller.busy_ns") {
      busy += c.value;
    }
  }
  return busy;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
