// Unit tests for span_stats.h. Exits nonzero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "span_stats.h"

namespace {

int failures = 0;

#define EXPECT_EQ(a, b)                                                   \
  do {                                                                    \
    const long long va = static_cast<long long>(a);                      \
    const long long vb = static_cast<long long>(b);                      \
    if (va != vb) {                                                       \
      std::fprintf(stderr, "%s:%d: %s == %lld, expected %lld\n", __FILE__, \
                   __LINE__, #a, va, vb);                                 \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

using perfbench::ExactPercentile;
using perfbench::FastestChunks;
using perfbench::SamplesBeyond;
using perfbench::SelfTimes;
using perfbench::Span;

void TestPercentileRanks() {
  std::vector<int64_t> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed.
  EXPECT_EQ(ExactPercentile(v, 0.50), 50);
  EXPECT_EQ(ExactPercentile(v, 0.99), 99);
  EXPECT_EQ(ExactPercentile(v, 1.00), 100);
  EXPECT_EQ(ExactPercentile(v, 0.00), 1);
  EXPECT_EQ(ExactPercentile(v, 0.001), 1);

  std::vector<int64_t> small = {7, 3, 5};
  EXPECT_EQ(ExactPercentile(small, 0.50), 5);  // ceil(1.5) = 2nd smallest.
  EXPECT_EQ(ExactPercentile(small, 0.34), 5);  // ceil(1.02) = 2.
  EXPECT_EQ(ExactPercentile(small, 0.33), 3);  // ceil(0.99) = 1.
  EXPECT_EQ(ExactPercentile(small, 0.99), 7);

  std::vector<int64_t> one = {42};
  EXPECT_EQ(ExactPercentile(one, 0.5), 42);
  std::vector<int64_t> none;
  EXPECT_EQ(ExactPercentile(none, 0.5), 0);

  std::vector<int64_t> ties = {2, 2, 2, 9};
  EXPECT_EQ(ExactPercentile(ties, 0.75), 2);
  EXPECT_EQ(ExactPercentile(ties, 0.76), 9);

  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);  // rank ceil(989.01) = 990.
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0);
}

void TestFastestChunks() {
  // Chunks of 4: medians (nearest rank) 3, 30, 2, 20.
  const std::vector<int64_t> v = {1, 3, 3, 9, 30, 30, 30, 1,
                                  2, 2, 5, 5, 20, 20, 20, 20};
  // A quarter of 4 chunks: the one with median 2 (chunk 2).
  EXPECT_EQ(FastestChunks(v, 4, 0.25, 0).size(), 4);
  EXPECT_EQ(FastestChunks(v, 4, 0.25, 0)[0], 2);
  // Half: chunks 0 and 2, in series order.
  const std::vector<int64_t> half = FastestChunks(v, 4, 0.5, 0);
  EXPECT_EQ(half.size(), 8);
  EXPECT_EQ(half[0], 1);
  EXPECT_EQ(half[4], 2);
  // At least 9 samples needs three chunks: 0, 2 and 3.
  const std::vector<int64_t> nine = FastestChunks(v, 4, 0.25, 9);
  EXPECT_EQ(nine.size(), 12);
  EXPECT_EQ(nine[8], 20);
  // Fewer than two chunks: the whole series.
  EXPECT_EQ(FastestChunks(v, 9, 0.25, 0).size(), 16);
  EXPECT_EQ(FastestChunks(v, 0, 0.25, 0).size(), 16);
  // 10 samples in chunks of 3 make three chunks of 3, 3 and 4.
  const std::vector<int64_t> uneven = {5, 5, 5, 1, 1, 1, 9, 9, 9, 9};
  EXPECT_EQ(FastestChunks(uneven, 3, 0.34, 0).size(), 3);
  EXPECT_EQ(FastestChunks(uneven, 3, 0.34, 0)[0], 1);
  EXPECT_EQ(FastestChunks(uneven, 3, 1.0, 0).size(), 10);
}

Span S(int parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimeNested() {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90).
  const std::vector<Span> spans = {S(-1, 0, 100), S(0, 10, 40), S(1, 15, 25),
                                   S(0, 50, 90)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 40);
  // Without overlap the self times partition the root exactly.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100);
}

void TestSelfTimeOverlappingChildren() {
  // Parallel children [10,50) and [30,70) cover [10,70) once; a third child
  // inside both adds nothing; one sticking out past the root is clipped.
  const std::vector<Span> spans = {S(-1, 0, 100), S(0, 10, 50), S(0, 30, 70),
                                   S(0, 35, 45), S(0, 90, 120)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[4], 30);  // Its own duration; it has no children.
}

void TestSelfTimeAdjacentAndEmpty() {
  const std::vector<Span> spans = {S(-1, 0, 10), S(0, 0, 5), S(0, 5, 10),
                                   S(0, 7, 7)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 0);
  EXPECT_EQ(self[3], 0);
}

}  // namespace

int main() {
  TestPercentileRanks();
  TestFastestChunks();
  TestSelfTimeNested();
  TestSelfTimeOverlappingChildren();
  TestSelfTimeAdjacentAndEmpty();
  if (failures != 0) {
    std::fprintf(stderr, "span_stats_test: %d failure(s)\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("span_stats_test: ok\n");
  return EXIT_SUCCESS;
}
