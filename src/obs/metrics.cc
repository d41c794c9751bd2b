#include "obs/metrics.h"

#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/op_counter.h"

namespace ddc {
namespace obs {

#ifndef DDC_OBS_DISABLED

namespace {

bool InitEnabledFromEnv() {
  const char* env = std::getenv("DDC_OBS_ENABLED");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0 &&
         std::strcmp(env, "off") != 0;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{InitEnabledFromEnv()};
  return enabled;
}

}  // namespace

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

#endif  // DDC_OBS_DISABLED

int64_t Histogram::Snapshot::Percentile(double q) const {
  if (count <= 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target sample, 1-based; q = 0 means the smallest sample.
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      const int64_t upper = BucketUpperBound(b);
      return upper < max ? upper : max;
    }
  }
  return max;  // Unreachable when counts are consistent with count.
}

Histogram::Snapshot Histogram::Read() const {
  Snapshot snap;
  for (int b = 0; b < kNumBuckets; ++b) {
    snap.counts[b] = counts_[b].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (int b = 0; b < kNumBuckets; ++b) {
    counts_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

namespace {

// The registry counters that view the per-thread count blocks (obs-on
// builds; with DDC_OBS=OFF they are plain counters that stay 0).
struct CountBlockView {
  std::string_view name;
  int64_t (*source)();
};
constexpr CountBlockView kCountBlockViews[] = {
    {"ddc.values_read", [] { return AllThreadCounts().values_read; }},
    {"ddc.values_written", [] { return AllThreadCounts().values_written; }},
    {"ddc.nodes_visited", [] { return AllThreadCounts().nodes_visited; }},
    {"ddc.face_lookups", [] { return AllThreadCounts().face_lookups; }},
};

}  // namespace

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked deliberately: instrumented destructors (arenas in static cubes,
  // the shared thread pool) may record during process teardown, after
  // ordinary static destruction would have run.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    // Registered up front: no count site resolves them.
    for (const CountBlockView& view : kCountBlockViews) {
      r->GetCounter(view.name);
    }
    return r;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    int64_t (*source)() = nullptr;
#ifndef DDC_OBS_DISABLED
    for (const CountBlockView& view : kCountBlockViews) {
      if (view.name == name) source = view.source;
    }
#endif
    it = counters_.emplace(std::string(name), std::make_unique<Counter>(source))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map '.' to
// '_' (the conventional flattening).
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

void RenderHistogramText(const std::string& name,
                         const Histogram::Snapshot& snap, std::ostream& os) {
  os << "# TYPE " << name << " histogram\n";
  int64_t cumulative = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (snap.counts[b] == 0) continue;
    cumulative += snap.counts[b];
    os << name << "_bucket{le=\"" << Histogram::BucketUpperBound(b) << "\"} "
       << cumulative << "\n";
  }
  os << name << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
  os << name << "_sum " << snap.sum << "\n";
  os << name << "_count " << snap.count << "\n";
  os << name << "_p50 " << snap.Percentile(0.50) << "\n";
  os << name << "_p90 " << snap.Percentile(0.90) << "\n";
  os << name << "_p99 " << snap.Percentile(0.99) << "\n";
  os << name << "_max " << snap.max << "\n";
}

}  // namespace

void RenderText(const MetricsRegistry& registry, std::ostream& os) {
  registry.ForEach(
      [&os](const std::string& name, const Counter& c) {
        const std::string prom = PromName(name);
        os << "# TYPE " << prom << " counter\n"
           << prom << " " << c.Value() << "\n";
      },
      [&os](const std::string& name, const Gauge& g) {
        const std::string prom = PromName(name);
        os << "# TYPE " << prom << " gauge\n"
           << prom << " " << g.Value() << "\n";
      },
      [&os](const std::string& name, const Histogram& h) {
        RenderHistogramText(PromName(name), h.Read(), os);
      });
}

void RenderJson(const MetricsRegistry& registry, std::ostream& os) {
  // Three passes (one per section) keep the JSON structure simple; the
  // registry only grows, so the sections stay mutually consistent.
  bool first = true;
  os << "{\n  \"counters\": {";
  registry.ForEach(
      [&](const std::string& name, const Counter& c) {
        os << (first ? "" : ",") << "\n    \"" << name << "\": " << c.Value();
        first = false;
      },
      [](const std::string&, const Gauge&) {},
      [](const std::string&, const Histogram&) {});
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  registry.ForEach(
      [](const std::string&, const Counter&) {},
      [&](const std::string& name, const Gauge& g) {
        os << (first ? "" : ",") << "\n    \"" << name << "\": " << g.Value();
        first = false;
      },
      [](const std::string&, const Histogram&) {});
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  registry.ForEach(
      [](const std::string&, const Counter&) {},
      [](const std::string&, const Gauge&) {},
      [&](const std::string& name, const Histogram& h) {
        const Histogram::Snapshot snap = h.Read();
        os << (first ? "" : ",") << "\n    \"" << name << "\": {"
           << "\"count\": " << snap.count << ", \"sum\": " << snap.sum
           << ", \"max\": " << snap.max
           << ", \"p50\": " << snap.Percentile(0.50)
           << ", \"p90\": " << snap.Percentile(0.90)
           << ", \"p99\": " << snap.Percentile(0.99) << ", \"buckets\": [";
        bool first_bucket = true;
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          if (snap.counts[b] == 0) continue;
          os << (first_bucket ? "" : ", ") << "{\"le\": "
             << Histogram::BucketUpperBound(b)
             << ", \"count\": " << snap.counts[b] << "}";
          first_bucket = false;
        }
        os << "]}";
        first = false;
      });
  os << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace obs
}  // namespace ddc
