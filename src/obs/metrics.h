// Observability: a process-wide registry of named counters, gauges and
// log-bucketed latency/size histograms.
//
// Design constraints, in order:
//   1. Recording is lock-free: every mutation is a relaxed atomic op on a
//      pre-resolved handle, so instrumentation is safe from const query
//      paths under shared locks. The DDC family's value counts
//      (ddc.values_read, ...) are not recorded here: those counters are
//      views that sum the per-thread count blocks (common/op_counter.h).
//   2. Zero cost when disabled: every instrumentation site is guarded by
//      `if (obs::Enabled())`. At runtime that is one relaxed bool load and a
//      predictable branch; with the DDC_OBS=OFF compile option Enabled() is
//      a constexpr false and the sites fold away entirely.
//   3. Handles are resolved once and never invalidated: GetCounter/GetGauge/
//      GetHistogram intern by name under a mutex (registration is cold) and
//      the returned pointers stay valid for the registry's lifetime, so hot
//      paths cache them in function-local statics.
//
// Histograms are HDR-style with power-of-two buckets: bucket 0 holds the
// value 0 and bucket b >= 1 holds [2^(b-1), 2^b - 1], so 64 buckets cover
// the full non-negative int64 range with <= 2x relative quantile error.
// Percentile readout returns min(bucket upper bound, observed max), which
// bounds the reported quantile within [exact, 2 * exact].
//
// Exposition: RenderText (Prometheus text format; dots in metric names map
// to underscores) and RenderJson (dotted names preserved). See DESIGN.md §9.

#ifndef DDC_OBS_METRICS_H_
#define DDC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace ddc {
namespace obs {

// ---------------------------------------------------------------------------
// Enable guard.

#ifdef DDC_OBS_DISABLED
// Compile-time off: instrumentation sites guarded by Enabled() are dead code.
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
// Runtime flag, initialized from the DDC_OBS_ENABLED environment variable
// (unset or any value other than "0"/"false"/"off" means enabled).
bool Enabled();
void SetEnabled(bool enabled);
#endif

// Monotonic wall time in nanoseconds (steady clock).
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Instruments. All mutation is relaxed-atomic: totals are exact once the
// writers quiesce, and monotone lower bounds while they run.

class Counter {
 public:
  Counter() = default;
  // A view: Value() reads `source` (less its reading at the last Reset);
  // nothing Adds to it.
  explicit Counter(int64_t (*source)()) : source_(source) {}

  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Value() const {
    return value_.load(std::memory_order_relaxed) +
           (source_ != nullptr ? source_() : 0);
  }
  void Reset() {
    value_.store(source_ != nullptr ? -source_() : 0,
                 std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  int64_t (*source_)() = nullptr;
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  // Bucket index for a value: 0 holds {v <= 0}, bucket b >= 1 holds
  // [2^(b-1), 2^b - 1]; values past 2^62 collapse into bucket 63.
  static int BucketIndex(int64_t value) {
    if (value <= 0) return 0;
    const int b = std::bit_width(static_cast<uint64_t>(value));
    return b < kNumBuckets ? b : kNumBuckets - 1;
  }

  // Largest value the bucket admits (inclusive).
  static int64_t BucketUpperBound(int bucket) {
    if (bucket <= 0) return 0;
    if (bucket >= kNumBuckets - 1) return INT64_MAX;
    return (int64_t{1} << bucket) - 1;
  }

  void Record(int64_t value) {
    if (value < 0) value = 0;
    counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  // Bulk merge used by batch accumulators (obs/workload_recorder.h): folds
  // `bucket_counts` plus the precomputed count/sum/max in O(non-zero
  // buckets) atomic ops — equivalent to the corresponding Record sequence.
  void Merge(const int64_t bucket_counts[kNumBuckets], int64_t count,
             int64_t sum, int64_t max) {
    for (int b = 0; b < kNumBuckets; ++b) {
      if (bucket_counts[b] != 0) {
        counts_[b].fetch_add(bucket_counts[b], std::memory_order_relaxed);
      }
    }
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (max > seen &&
           !max_.compare_exchange_weak(seen, max,
                                       std::memory_order_relaxed)) {
    }
  }

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  // A consistent-enough copy for readout: bucket counts are loaded once
  // each; while writers are running the quantiles are approximate, after
  // quiescence they are the bucket-resolution truth.
  struct Snapshot {
    int64_t counts[kNumBuckets] = {};
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;

    // Quantile q in [0, 1]: the upper bound of the bucket containing the
    // ceil(q * count)-th smallest sample, clamped to the observed max.
    // Guarantees exact <= result <= 2 * exact for positive samples.
    int64_t Percentile(double q) const;
  };
  Snapshot Read() const;

  void Reset();

 private:
  std::atomic<int64_t> counts_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

// ---------------------------------------------------------------------------
// Registry.

// Naming convention (see CONTRIBUTING.md): dotted lower_snake segments,
// `namespace.object.detail`, with a unit suffix for histograms (`_ns` for
// nanoseconds; unsuffixed histograms count sizes).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every built-in instrumentation site records
  // into. Never destroyed (instrumented destructors may run at exit).
  static MetricsRegistry& Default();

  // Intern-by-name: the first call creates the instrument, later calls
  // return the same pointer. Pointers stay valid for the registry lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Zeroes every registered instrument (instruments stay registered). For
  // tests and tools that want a workload-scoped readout.
  void Reset();

  // Visitation used by the renderers; fn runs under the registration mutex,
  // so it must not call back into the registry.
  template <typename CounterFn, typename GaugeFn, typename HistFn>
  void ForEach(const CounterFn& counter_fn, const GaugeFn& gauge_fn,
               const HistFn& hist_fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) counter_fn(name, *c);
    for (const auto& [name, g] : gauges_) gauge_fn(name, *g);
    for (const auto& [name, h] : histograms_) hist_fn(name, *h);
  }

 private:
  mutable std::mutex mutex_;
  // std::map: stable pointers, and render output comes out name-sorted.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ---------------------------------------------------------------------------
// Exposition.

// Prometheus text format ('.' -> '_' in names). Histograms emit cumulative
// buckets, sum, count, plus p50/p90/p99/max convenience lines.
void RenderText(const MetricsRegistry& registry, std::ostream& os);
inline void RenderText(std::ostream& os) {
  RenderText(MetricsRegistry::Default(), os);
}

// JSON: {"counters": {...}, "gauges": {...}, "histograms": {...}} with
// dotted names preserved and per-histogram count/sum/max/p50/p90/p99.
void RenderJson(const MetricsRegistry& registry, std::ostream& os);
inline void RenderJson(std::ostream& os) {
  RenderJson(MetricsRegistry::Default(), os);
}

// ---------------------------------------------------------------------------
// RAII latency helper: reads the clock only when observability is enabled
// at construction, and records wall nanoseconds into `hist` on destruction.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* hist)
      : hist_(Enabled() ? hist : nullptr),
        start_(hist_ != nullptr ? NowNanos() : 0) {}
  ~ScopedLatencyTimer() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<int64_t>(NowNanos() - start_));
    }
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_;
};

}  // namespace obs
}  // namespace ddc

#endif  // DDC_OBS_METRICS_H_
