// perfbench infrastructure shared by the workloads: run options, the
// result record (metrics, attempted/failed operations), in-memory trace
// spans recorded around every call the benchmark makes into a library
// module, exact percentiles from raw samples, and small host helpers.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "lattice/obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrunken sizes for the smoke test; never used for measurement.
  bool tiny = false;
  /// Per-run scratch directory (spool, checkpoints); the caller owns
  /// and removes it.
  std::string tmpdir;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports.
struct Result {
  std::vector<Metric> metrics;
  /// Operations attempted and failed: advance() calls and wire
  /// requests. A failed output check is charged to the operation whose
  /// output it checked.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  /// Informational lines printed before the metrics.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded by the benchmark's own code: name, start, end, the
/// enclosing span on the same thread, and a request id shared by every
/// span of one served request. Kept in memory; written as a Chrome
/// trace when the run ends.
class Spans {
 public:
  struct Span {
    const char* name;  // string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t id;
    std::int64_t parent;   // 0 = top level
    std::int64_t request;  // 0 = not part of a served request
    int thread;
  };

  static Spans& get();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Per-name count, total and self time (total minus child spans).
  std::vector<std::string> waterfall() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class SpanScope;
  std::int64_t open();
  void close(const Span& s);

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; free (one relaxed load) when spans are disabled.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans::Span span_{};
  bool live_ = false;
};

/// Times `fn` `reps` times, each inside a span named `name`; returns
/// the median duration in ns.
template <class Fn>
std::int64_t timed_median(const char* name, int reps, Fn&& fn);

/// Exact quantile of raw samples (linear interpolation between order
/// statistics, as numpy's default); 0 for an empty set.
double quantile(std::vector<double> samples, double q);
/// Highest percentile with at least ten samples beyond it, in percent
/// (e.g. 99 needs 1000 samples); 0 when fewer than 10 samples.
double highest_supported_percentile(std::size_t n);
double median(std::vector<double> samples);

/// Peak resident set of this process, MiB.
double peak_rss_mb();
/// Last-level cache size in bytes (0 when the C library cannot say).
std::int64_t llc_bytes();
unsigned nproc();

/// Sum of the named histogram (0 when absent).
std::int64_t histogram_sum(const lattice::obs::MetricsSnapshot& m,
                           const char* name);
/// Busy ns of every shared-pool executor (workers and the caller).
std::int64_t pool_busy_ns(const lattice::obs::MetricsSnapshot& m);

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// ---- workloads ----

/// Each returns after its timed phase and checks; per-layer metrics are
/// added only when opt.trace is set, end-to-end ones only when it is not.
void run_engine_workload(const Options& opt, Result& r);
void run_serve_workload(const Options& opt, Result& r);

// ---- layer probes (traced runs) ----

struct ProbeShape {
  /// 2-D probe lattice and gas (lgca layer), tiled per
  /// Config::tile_generations semantics.
  std::int64_t side2 = 0;
  int gas2 = 0;  // lgca::GasKind as int
  int tile2 = 1;
  /// 3-D probe volume (lgca3d layer), auto-tiled like BitPlane3.
  std::int64_t nx3 = 0, ny3 = 0, nz3 = 0;
  unsigned threads = 1;
  /// Lattice dimension of the workload (Theorem 4 ceiling).
  int dim = 2;
};

struct ProbeRates {
  double kernel2_sites_per_s = 0;
  double kernel3_sites_per_s = 0;
};

/// Sets the 3-D probe box to `sites` sites (a power of two), as near a
/// cube as powers of two allow: a 2-D workload probes lgca3d at its own
/// site count.
void set_probe_box(ProbeShape& shape, std::int64_t sites);

/// Runs the lgca / lgca3d / core checkpoint / host probes at `shape`
/// and adds their per-layer metrics. Probe outputs are checked (pack
/// round-trips, checkpoint round-trips); a mismatch fails the run.
ProbeRates run_layer_probes(const Options& opt, const ProbeShape& shape,
                            Result& r);

/// serve.ping_rtt_us over a fresh socketpair connection to an empty
/// SessionManager (engine workloads; the serve workload pings its own).
void probe_ping_rtt(const Options& opt, Result& r);

// ---- template definitions ----

template <class Fn>
std::int64_t timed_median(const char* name, int reps, Fn&& fn) {
  std::vector<double> d;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    {
      const SpanScope s(name);
      fn();
    }
    d.push_back(static_cast<double>(now_ns() - t0));
  }
  return static_cast<std::int64_t>(median(d));
}

}  // namespace perfbench
