#!/usr/bin/env bash
# Builds the tree under ThreadSanitizer and AddressSanitizer (with
# UndefinedBehaviorSanitizer) and runs the `sanitize`-labelled concurrency
# tests under each. Any race, leak or undefined behaviour fails the run.
# Usage:
#
#   tools/run_sanitizers.sh            # both sanitizers
#   tools/run_sanitizers.sh thread     # just TSan
#   tools/run_sanitizers.sh address    # just ASan + UBSan
#
# Build trees land in build-tsan/ and build-asan/ next to the source tree,
# so they never disturb the regular build/ directory.

set -euo pipefail

cd "$(dirname "$0")/.."

# The targets behind `ctest -L "sanitize|fault"` (keep in sync with
# tests/CMakeLists.txt). Building only these keeps a sanitizer run fast.
SANITIZE_TARGETS=(concurrent_test sharded_cube_test sharded_stress_test
                  query_batch_test update_batch_test obs_concurrent_test
                  fault_recovery_test query_fuzz_test wal_test
                  range_mutation_test range_journal_test
                  kernel_layout_test ddctool
                  sharded_drain_test
                  cached_cube_test cache_invalidation_property_test)

# Sanitizer runs exercise the SIMD dispatch paths too: DDC_NATIVE=ON (the
# default here, on top of the sanitizer flags) compiles the AVX2 kernels on
# capable hosts, so TSan/ASan see the same code production -march=native
# builds run. Export DDC_NATIVE=OFF to check the portable kernels instead;
# tools/check_native_paths.sh drives both dispatch modes end to end.
DDC_NATIVE="${DDC_NATIVE:-ON}"

run_one() {
  local kind="$1"
  local dir="build-${kind:0:1}san"  # build-tsan / build-asan
  case "$kind" in
    thread)  dir=build-tsan ;;
    address) dir=build-asan ;;
    *) echo "unknown sanitizer '$kind' (want thread|address)" >&2; exit 2 ;;
  esac
  echo "=== ${kind} sanitizer: configuring ${dir} ==="
  # Faults on: the crash-recovery differential suite and the crashloop
  # harness do their real work only in a faults build, and every injected
  # failure path (poisoned-log truncation, AllocFailure unwinding, delayed
  # pool lanes) should be exercised under both sanitizers.
  cmake -B "$dir" -S . -DDDC_SANITIZE="$kind" -DDDC_FAULTS=ON \
        -DDDC_NATIVE="$DDC_NATIVE" > /dev/null
  echo "=== ${kind} sanitizer: building ==="
  cmake --build "$dir" -j "$(nproc)" --target "${SANITIZE_TARGETS[@]}"
  echo "=== ${kind} sanitizer: running ctest -L 'sanitize|fault' ==="
  # halt_on_error makes the first report fail the test instead of merely
  # printing; second_deadlock_stack improves lock-order reports.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir "$dir" -L "sanitize|fault" --output-on-failure
}

if [ "$#" -eq 0 ]; then
  run_one thread
  run_one address
else
  for kind in "$@"; do
    run_one "$kind"
  done
fi

echo "All sanitizer runs passed."
