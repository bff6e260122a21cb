// Low-overhead metrics: named monotonic counters, gauges, and
// log-bucketed histograms behind one process-wide registry.
//
// The simulators are measurement instruments — the paper's whole
// argument is carried by counted ticks and timed stages — so the
// instrumentation layer must never perturb what it measures:
//
//   * Counters are sharded per thread. add() is one relaxed fetch_add
//     on a cache line no other running thread touches; shards are
//     merged only when snapshot() is called.
//   * Histograms bucket values by bit width (bucket b holds
//     [2^(b-1), 2^b)), so record() is a handful of relaxed atomic adds
//     — no locks, no allocation, safe from any thread.
//   * Registration (name -> id) is the only locking path. Hot code
//     resolves ids once (constructor, function-local static) and then
//     only ever touches atomics.
//   * The whole layer compiles to nothing when LATTICE_OBS_ENABLED is
//     0 (CMake -DLATTICE_OBS=OFF): every helper below is gated on
//     `if constexpr (kEnabled)`, so call sites need no #ifdefs.
//
// The registry is process-global (MetricsRegistry::global()), like the
// thread pool it instruments: metrics from every engine in the process
// merge into one namespace. Tests and tools that need a clean slate
// call reset(). Metric names in use are cataloged in
// docs/OBSERVABILITY.md.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef LATTICE_OBS_ENABLED
#define LATTICE_OBS_ENABLED 1
#endif

namespace lattice::obs {

/// Compile-time master switch: with LATTICE_OBS_ENABLED=0 every
/// instrumentation helper in this header is an empty inline function.
inline constexpr bool kEnabled = LATTICE_OBS_ENABLED != 0;

/// Monotonic nanosecond clock used by every timer and span.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CounterValue {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

/// A merged histogram: exact count/sum/min/max plus power-of-two
/// buckets. Values are unitless int64 (the engine records nanoseconds).
struct HistogramStats {
  static constexpr int kBuckets = 64;

  std::string name;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // 0 when count == 0
  std::int64_t max = 0;
  std::array<std::int64_t, kBuckets> buckets{};

  double mean() const noexcept {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  /// Smallest value bucket b can hold (b == 0 collects v <= 0).
  static std::int64_t bucket_floor(int b) noexcept {
    return b <= 0 ? 0 : std::int64_t{1} << (b - 1);
  }

  /// Upper-bound estimate of the p-quantile (p in [0, 1]): the
  /// exclusive ceiling of the bucket where the quantile falls.
  std::int64_t quantile_ceiling(double p) const noexcept;

  /// Record `v` straight into these stats, bucketed exactly as the
  /// registry buckets it. For locally owned histograms, which keep
  /// working in -DLATTICE_OBS=OFF builds.
  void add(std::int64_t v) noexcept;
};

/// Everything the registry knew at one merge point.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramStats> histograms;

  std::int64_t counter_or(std::string_view name,
                          std::int64_t fallback = 0) const noexcept;
  std::int64_t gauge_or(std::string_view name,
                        std::int64_t fallback = 0) const noexcept;
  const HistogramStats* find_histogram(std::string_view name) const noexcept;
};

/// Named counters/gauges/histograms with thread-local counter shards.
/// All mutation entry points are noexcept and lock-free; registration
/// and snapshot take a mutex.
class MetricsRegistry {
 public:
  using Id = std::int32_t;
  static constexpr Id kInvalidId = -1;

  /// Fixed capacity keeps the per-thread shard a flat array that never
  /// reallocates (reallocation would race with relaxed writers).
  static constexpr int kMaxCounters = 224;
  static constexpr int kMaxGauges = 32;
  static constexpr int kMaxHistograms = 96;
  static constexpr int kBuckets = HistogramStats::kBuckets;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric. Idempotent; returns kInvalidId
  /// when the fixed capacity is exhausted (mutation on an invalid id is
  /// a no-op through the free helpers below).
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  Id histogram(std::string_view name);

  void add(Id c, std::int64_t delta) noexcept;
  void gauge_set(Id g, std::int64_t v) noexcept;
  void gauge_add(Id g, std::int64_t delta) noexcept;
  void record(Id h, std::int64_t v) noexcept;

  /// Merge every thread's shard and return the current totals.
  MetricsSnapshot snapshot() const;

  /// Zero all counters, gauges, and histograms (names and ids are
  /// kept). Concurrent mutation during reset is not torn, merely
  /// attributed before or after it.
  void reset() noexcept;

  /// The process-wide registry every built-in metric lives in.
  static MetricsRegistry& global();

 private:
  struct Shard;
  struct Histo;

  Shard& local_shard() noexcept;

  const std::uint64_t serial_;  // distinguishes registry instances in TLS

  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges_{};
  std::unique_ptr<Histo[]> hists_;
};

// ---- call-site helpers (all compile away when kEnabled is false) ----

inline MetricsRegistry::Id counter_id(std::string_view name) {
  if constexpr (kEnabled) return MetricsRegistry::global().counter(name);
  return MetricsRegistry::kInvalidId;
}

inline MetricsRegistry::Id gauge_id(std::string_view name) {
  if constexpr (kEnabled) return MetricsRegistry::global().gauge(name);
  return MetricsRegistry::kInvalidId;
}

inline MetricsRegistry::Id histogram_id(std::string_view name) {
  if constexpr (kEnabled) return MetricsRegistry::global().histogram(name);
  return MetricsRegistry::kInvalidId;
}

inline void count(MetricsRegistry::Id id, std::int64_t delta) noexcept {
  if constexpr (kEnabled) {
    if (id >= 0) MetricsRegistry::global().add(id, delta);
  }
}

inline void gauge_set(MetricsRegistry::Id id, std::int64_t v) noexcept {
  if constexpr (kEnabled) {
    if (id >= 0) MetricsRegistry::global().gauge_set(id, v);
  }
}

inline void gauge_add(MetricsRegistry::Id id, std::int64_t delta) noexcept {
  if constexpr (kEnabled) {
    if (id >= 0) MetricsRegistry::global().gauge_add(id, delta);
  }
}

inline void record(MetricsRegistry::Id id, std::int64_t v) noexcept {
  if constexpr (kEnabled) {
    if (id >= 0) MetricsRegistry::global().record(id, v);
  }
}

/// RAII nanosecond timer: records the scope's duration into a
/// histogram on destruction (or at stop()). A kInvalidId histogram —
/// the disabled build, or an unregistered site — costs nothing.
class ScopedTimer {
 public:
  explicit ScopedTimer(MetricsRegistry::Id hist) noexcept {
    if constexpr (kEnabled) {
      hist_ = hist;
      if (hist_ >= 0) start_ns_ = now_ns();
    }
  }

  ~ScopedTimer() { stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit; further stops are no-ops.
  void stop() noexcept {
    if constexpr (kEnabled) {
      if (hist_ >= 0 && start_ns_ >= 0) {
        record(hist_, now_ns() - start_ns_);
        start_ns_ = -1;
      }
    }
  }

 private:
  MetricsRegistry::Id hist_ = MetricsRegistry::kInvalidId;
  std::int64_t start_ns_ = -1;
};

}  // namespace lattice::obs
