// Exact order statistics and span self time for the end-to-end benchmark.
//
// Percentiles here are exact nearest-rank values over the recorded
// samples, not the <= 2x bucketed readout of obs::Histogram: the benchmark
// compares medians across commits, so the statistic itself must not move.

#ifndef PERFBENCH_SPAN_STATS_H_
#define PERFBENCH_SPAN_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the ceil(q * n)-th smallest sample (1-based),
// with q in [0, 1]; q == 0 yields the minimum. Returns 0 for no samples.
// Reorders `samples` (nth_element).
inline int64_t ExactPercentile(std::vector<int64_t>& samples, double q) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

// Samples strictly above the nearest-rank q-percentile's rank: n - ceil(qn).
// The benchmark reports p99 only when this is at least 10.
inline int64_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return static_cast<int64_t>(n - std::min(rank, n));
}

// The samples of the least disturbed stretches of a series. `samples`, in
// the order they were taken, is cut into floor(n / chunk) consecutive
// chunks of equal size (to within one); the `keep` share of the chunks with
// the lowest medians, raised to as many as hold `min_samples`, is returned
// pooled, in chunk order. Ties keep the earlier chunk. A series of fewer
// than two chunks is returned whole.
inline std::vector<int64_t> FastestChunks(const std::vector<int64_t>& samples,
                                          size_t chunk, double keep,
                                          size_t min_samples) {
  const size_t n = samples.size();
  const size_t k = chunk == 0 ? 0 : n / chunk;
  if (k < 2) return samples;
  auto begin = [&](size_t i) {
    return samples.begin() + static_cast<std::ptrdiff_t>(i * n / k);
  };
  std::vector<std::pair<int64_t, size_t>> medians;  // (median, chunk index)
  for (size_t i = 0; i < k; ++i) {
    std::vector<int64_t> c(begin(i), begin(i + 1));
    medians.emplace_back(ExactPercentile(c, 0.5), i);
  }
  std::sort(medians.begin(), medians.end());
  const size_t by_share =
      static_cast<size_t>(std::llround(keep * static_cast<double>(k)));
  const size_t by_count = (min_samples * k + n - 1) / n;
  const size_t kept = std::clamp<size_t>(std::max(by_share, by_count), 1, k);
  std::vector<size_t> chosen;
  for (size_t i = 0; i < kept; ++i) chosen.push_back(medians[i].second);
  std::sort(chosen.begin(), chosen.end());
  std::vector<int64_t> pool;
  for (size_t i : chosen) pool.insert(pool.end(), begin(i), begin(i + 1));
  return pool;
}

// One timed interval of a traced statement. `parent` indexes the same
// statement's span list (-1 for the statement root).
struct Span {
  uint8_t name = 0;
  int32_t parent = -1;
  uint32_t stmt = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration() const { return end_ns - start_ns; }
};

// Self time of every span in `spans` (one statement's tree, parents before
// children): its duration minus the part of its interval covered by the
// union of its direct children, each clipped to the parent. Overlapping
// children (work fanned out in parallel) are counted once.
inline std::vector<int64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_STATS_H_
