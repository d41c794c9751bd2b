// Host metadata every bench JSON records, so that a number can be traced to
// the host class it came from and a gate can refuse to compare across
// classes (ROADMAP item 1).
//
//   hardware_threads  std::thread::hardware_concurrency(): the host's
//                     hardware threads.
//   affinity_cpus     the CPUs this process may run on (sched_getaffinity);
//                     fewer than hardware_threads under `taskset` or a
//                     cpuset-limited container.

#ifndef DDC_BENCH_BENCH_HOST_H_
#define DDC_BENCH_BENCH_HOST_H_

#include <sched.h>

#include <cstdio>
#include <thread>

namespace ddc {

inline int HardwareThreads() {
  return static_cast<int>(std::thread::hardware_concurrency());
}

inline int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return HardwareThreads();
  return CPU_COUNT(&set);
}

// Writes both keys as members of the top-level JSON object, one per line,
// each followed by a comma.
inline void WriteHostJson(std::FILE* out) {
  std::fprintf(out,
               "  \"hardware_threads\": %d,\n"
               "  \"affinity_cpus\": %d,\n",
               HardwareThreads(), AffinityCpus());
}

}  // namespace ddc

#endif  // DDC_BENCH_BENCH_HOST_H_
