// Hot-loop kernels for the cube's descent and accumulation paths, plus the
// scalar/optimized dispatch switch.
//
// Every query and update in the Dynamic Data Cube bottoms out in two loop
// shapes: summing a prefix of a node's sum array (B_c-tree descents, the
// Figure 10 classify step) and summing a contiguous block of cells (the
// Section 4.4 space-optimized raw leaves, Fenwick bulk build, grouped
// subtotal accumulation). On modern hardware both are dominated by branch
// mispredicts and per-element loop overhead, not by the adds themselves
// (Pibiri–Venturini, arXiv 2006.14552). This header provides:
//
//   * Scalar reference kernels (`SumScalar`, `MaskedPrefixSumScalar`) —
//     deliberately the naive one-element-per-iteration loops, pinned
//     unvectorized so they stay an honest pre-optimization baseline for
//     bench_kernels and the bit-exactness contract for the differential
//     tests in kernel_layout_test.
//   * Optimized kernels (`Sum`, `MaskedPrefixSum`) — branchless, multi-
//     accumulator unrolled; compiled as AVX2 intrinsics when the build
//     opts in with -DDDC_NATIVE=ON on an AVX2 host, portable otherwise.
//     Every kernel accumulates in uint64_t, where wrap-around is defined,
//     and casts back (modular since C++20). Modular addition is associative,
//     so every variant returns bit-exact identical results, wrap-around
//     included — the dispatch is purely a performance choice, which the
//     differential tests verify.
//   * A process-wide runtime switch (`ForceScalar` / `ScopedForceScalar`)
//     that routes the structure-level fast paths (B_c-tree descents, raw
//     leaf prefix sums) back to their scalar reference implementations.
//     Benches use it to measure the optimized paths against the pre-PR
//     baseline inside one binary; tests use it for differentials.
//
// The switch is read at most once per high-level operation (never per
// element); it is a relaxed atomic so tests can flip it without fences.

#ifndef DDC_COMMON_KERNELS_H_
#define DDC_COMMON_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(DDC_NATIVE_ENABLED) && defined(__AVX2__)
#include <immintrin.h>
#define DDC_KERNELS_AVX2 1
#endif

// Pins the scalar reference loops to their written form: without this, an
// aggressive build (-O3 / -march=native) would auto-vectorize the baseline
// and the bench would measure compiler flags instead of kernel structure.
#if defined(__GNUC__) && !defined(__clang__)
#define DDC_KERNEL_NO_VECTORIZE \
  __attribute__((optimize("no-tree-vectorize,no-unroll-loops")))
#else
#define DDC_KERNEL_NO_VECTORIZE
#endif

namespace ddc {
namespace kernels {

namespace internal {
inline std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace internal

// True when structure-level fast paths must fall back to their scalar
// reference implementations (the semantic contract).
inline bool UseScalar() {
  return internal::ForceScalarFlag().load(std::memory_order_relaxed);
}

inline void ForceScalar(bool on) {
  internal::ForceScalarFlag().store(on, std::memory_order_relaxed);
}

// RAII scope for tests and benches; restores the previous mode on exit.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : prev_(UseScalar()) { ForceScalar(on); }
  ~ScopedForceScalar() { ForceScalar(prev_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Scalar reference kernels.

// Reference block sum: one element per iteration, no unrolling.
DDC_KERNEL_NO_VECTORIZE inline int64_t SumScalar(const int64_t* v, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<uint64_t>(v[i]);
  return static_cast<int64_t>(sum);
}

// Reference masked prefix sum: the pre-optimization per-entry compare loop —
// sums v[0 .. count) out of a node array of `fanout` entries.
DDC_KERNEL_NO_VECTORIZE inline int64_t MaskedPrefixSumScalar(
    const int64_t* v, size_t fanout, size_t count) {
  (void)fanout;
  uint64_t sum = 0;
  for (size_t i = 0; i < count; ++i) sum += static_cast<uint64_t>(v[i]);
  return static_cast<int64_t>(sum);
}

// ---------------------------------------------------------------------------
// Optimized kernels.

#ifdef DDC_KERNELS_AVX2

// AVX2 block sum: 4 lanes x 2 accumulators, scalar tail.
inline int64_t Sum(const int64_t* v, size_t n) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_epi64(
        acc0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i + 4)));
  }
  __m256i acc = _mm256_add_epi64(acc0, acc1);
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i pair = _mm_add_epi64(lo, hi);
  uint64_t sum = static_cast<uint64_t>(_mm_cvtsi128_si64(pair)) +
                 static_cast<uint64_t>(_mm_extract_epi64(pair, 1));
  for (; i < n; ++i) sum += static_cast<uint64_t>(v[i]);
  return static_cast<int64_t>(sum);
}

// AVX2 masked prefix sum over a node of exactly 8 entries (the cache-line
// node layout): compare a lane-index vector against `count`, mask, add.
// Branchless — reads the whole line, which is already resident.
inline int64_t MaskedPrefixSum8(const int64_t* v, size_t count) {
  const __m256i idx_lo = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i idx_hi = _mm256_setr_epi64x(4, 5, 6, 7);
  const __m256i limit = _mm256_set1_epi64x(static_cast<int64_t>(count));
  const __m256i keep_lo = _mm256_cmpgt_epi64(limit, idx_lo);
  const __m256i keep_hi = _mm256_cmpgt_epi64(limit, idx_hi);
  __m256i acc = _mm256_add_epi64(
      _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v)), keep_lo),
      _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 4)),
          keep_hi));
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i pair = _mm_add_epi64(lo, hi);
  return static_cast<int64_t>(
      static_cast<uint64_t>(_mm_cvtsi128_si64(pair)) +
      static_cast<uint64_t>(_mm_extract_epi64(pair, 1)));
}

#else  // !DDC_KERNELS_AVX2

// Portable block sum: 4 independent accumulators so the adds pipeline (and
// auto-vectorize under -O3); one pass, scalar tail.
inline int64_t Sum(const int64_t* v, size_t n) {
  uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += static_cast<uint64_t>(v[i]);
    a1 += static_cast<uint64_t>(v[i + 1]);
    a2 += static_cast<uint64_t>(v[i + 2]);
    a3 += static_cast<uint64_t>(v[i + 3]);
  }
  uint64_t sum = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) sum += static_cast<uint64_t>(v[i]);
  return static_cast<int64_t>(sum);
}

// Portable branchless masked prefix sum over 8 entries: predication by
// arithmetic mask instead of a data-dependent loop bound. The loop is
// unrolled explicitly: left to the inliner's size budget, GCC keeps it a
// loop once the kernel is inlined into a large descent.
inline int64_t MaskedPrefixSum8(const int64_t* v, size_t count) {
  const int64_t c = static_cast<int64_t>(count);
  uint64_t sum = 0;
#pragma GCC unroll 8
  for (int64_t i = 0; i < 8; ++i) {
    sum += static_cast<uint64_t>(v[i] & -static_cast<int64_t>(i < c));
  }
  return static_cast<int64_t>(sum);
}

#endif  // DDC_KERNELS_AVX2

// Branchless masked prefix sum for a general fanout: sums v[0 .. count) out
// of `fanout` stored entries. The fanout-8 shape (one cache line of sums) is
// the tuned default and gets the specialized kernel.
inline int64_t MaskedPrefixSum(const int64_t* v, size_t fanout, size_t count) {
  if (fanout == 8) return MaskedPrefixSum8(v, count);
  if (fanout <= 16) {
    // Small node: predicated whole-node scan — the entries share one or two
    // cache lines, so reading them all is cheaper than mispredicting.
    const int64_t c = static_cast<int64_t>(count);
    uint64_t sum = 0;
    for (int64_t i = 0; i < static_cast<int64_t>(fanout); ++i) {
      sum += static_cast<uint64_t>(v[i] & -static_cast<int64_t>(i < c));
    }
    return static_cast<int64_t>(sum);
  }
  return Sum(v, count);
}

}  // namespace kernels
}  // namespace ddc

#endif  // DDC_COMMON_KERNELS_H_
