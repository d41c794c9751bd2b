#!/usr/bin/env bash
# Verifies the -DDDC_OBS=OFF configuration still compiles and behaves: every
# obs:: call site must vanish behind the no-op facade, including the ones the
# batched-update pipeline added (histograms, counters, trace spans). Builds a
# dedicated tree and runs the suites that exercise the instrumented paths.
#
#   tools/check_obs_off.sh            # configure + build + run
#
# The build tree lands in build-obsoff/ next to the source tree, so it never
# disturbs the regular build/ directory. Part of the verify flow alongside
# tools/run_sanitizers.sh.

set -euo pipefail

cd "$(dirname "$0")/.."

# Suites that cross every instrumented layer: the DDC core write/query paths,
# the batched-update differential suite, the concurrent cubes, the obs
# facade itself (obs_test asserts the no-op behavior when compiled out), and
# the introspection surface (introspect_test covers the compiled-out ledger,
# workload recorder and flight recorder; ddctool_test the CLI commands), and
# the count channel (count_channel_test: CountsOf stays exact for every cube
# with the ledger and registry compiled out).
OBS_OFF_TARGETS=(ddc_core_test update_batch_test query_batch_test
                 concurrent_test obs_test introspect_test ddctool_test
                 count_channel_test)

echo "=== DDC_OBS=OFF: configuring build-obsoff ==="
cmake -B build-obsoff -S . -DDDC_OBS=OFF > /dev/null
echo "=== DDC_OBS=OFF: building ==="
cmake --build build-obsoff -j "$(nproc)" --target "${OBS_OFF_TARGETS[@]}" \
    ddctool
echo "=== DDC_OBS=OFF: running ==="
for t in "${OBS_OFF_TARGETS[@]}"; do
  ./build-obsoff/tests/"$t" > /dev/null
done

# The introspection CLI must stay usable (exit 0, empty-but-valid output)
# when observability is compiled out.
echo "=== DDC_OBS=OFF: ddctool introspection commands ==="
./build-obsoff/tools/ddctool explain "SUM" > /dev/null 2>&1
./build-obsoff/tools/ddctool heatmap --ops 16 > /dev/null 2>&1
./build-obsoff/tools/ddctool flightrec --ops 8 > /dev/null 2>&1
./build-obsoff/tools/ddctool stats --ops 16 --delta 1 > /dev/null 2>&1

# Build AND RUN the benchmark smoke suite in the obs-off tree (mirrors
# check_faults_off.sh): the hot paths must not merely compile with the
# instrumentation folded away, they must execute.
echo "=== DDC_OBS=OFF: building benches ==="
cmake --build build-obsoff -j "$(nproc)" > /dev/null
echo "=== DDC_OBS=OFF: running bench smoke suite ==="
ctest --test-dir build-obsoff -L bench_smoke --output-on-failure -j 1

echo "DDC_OBS=OFF build, tests, tools and bench smoke passed."
