#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/selftest.py [--workloads hot_reports,durable_ingest,concurrent_mix]

Checks, in order:
  1. span_stats_test: exact percentiles and span self time.
  2. Per workload, with a fixed statement count (--statements):
     - a clean run passes its oracle;
     - a run with one corrupted answer (--corrupt-answer) fails, exits
       nonzero and reports correct=false;
     - a run whose phase is stopped by its time cap fails;
     - two runs at the same seed give exactly equal count metrics and the
       same statement stream; another seed gives another stream;
     - two traced runs at the same seed give exactly equal ledger, cache
       and WAL count metrics (each traced run also checks that the traced
       stack answers exactly like the untraced one, and fails otherwise).
Exits nonzero if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

# Statements per client and phase.
STATEMENTS = {"hot_reports": 10000, "durable_ingest": 600,
              "concurrent_mix": 1000}
# Count metrics that must repeat exactly at a fixed seed and count. Under
# concurrent clients the interleaving changes what each read sees, so only
# the end state's storage ratio is fixed there.
E2E_COUNTS = ["stored_values_per_cell"]
TRACE_COUNTS = ["cache.hit_ratio", "cache.invalidated_per_write",
                "cache.patched_per_write", "ddc.unique_corners_per_read",
                "ddc.dedup_ratio", "ddc.nodes_per_read",
                "ddc.values_read_per_read", "ddc.values_written_per_mutation",
                "ddc.face_lookups_per_mutation", "wal.bytes_per_mutation"]

failures = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, extra=()):
    # --seconds only sets the time cap once --statements fixes the budget.
    cmd = [os.path.join(run.BUILD_DIR, "e2e_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "10", "--trace", str(trace),
           "--statements", str(STATEMENTS[workload])] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2]) if len(lines) >= 2 else {}
    result = json.loads(lines[-1]) if lines else {}
    return out.returncode, info, result


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(STATEMENTS))
    args = ap.parse_args()
    if not run.build(["e2e_bench", "span_stats_test"]):
        print("FAIL  build")
        return 1
    test = subprocess.run([os.path.join(run.BUILD_DIR, "span_stats_test")])
    check(test.returncode == 0, "span_stats_test")

    for w in args.workloads.split(","):
        rc, info, clean = bench(w, 7, 0)
        check(rc == 0 and clean.get("correct") is True,
              "%s: clean run passes the oracle" % w)
        rc, _, bad = bench(w, 7, 0, ["--corrupt-answer"])
        check(rc != 0 and bad.get("correct") is False and bad["failed"] >= 1,
              "%s: corrupted answer fails the run" % w)
        # Far more statements than the time cap allows: the phase is cut
        # short, and the run must fail instead of publishing its figures.
        rc, _, cut = bench(w, 7, 0, ["--statements", str(20 * STATEMENTS[w]),
                                     "--seconds", "0.1"])
        check(rc != 0 and cut.get("correct") is not True,
              "%s: a phase stopped by its time cap fails the run" % w)
        _, info2, again = bench(w, 7, 0)
        check(info["config"]["stream_digest"] ==
              info2["config"]["stream_digest"],
              "%s: same seed, same statement stream" % w)
        check(values(clean, E2E_COUNTS) == values(again, E2E_COUNTS),
              "%s: same seed, equal end-to-end count metrics %s" %
              (w, values(clean, E2E_COUNTS)))
        _, info3, _ = bench(w, 8, 0)
        check(info["config"]["stream_digest"] !=
              info3["config"]["stream_digest"],
              "%s: another seed, another statement stream" % w)
        rc1, _, t1 = bench(w, 7, 1)
        rc2, _, t2 = bench(w, 7, 1)
        check(rc1 == 0 and rc2 == 0 and t1.get("correct") and t2.get("correct"),
              "%s: traced runs pass the oracle and answer like untraced" % w)
        if w != "concurrent_mix":
            same = values(t1, TRACE_COUNTS) == values(t2, TRACE_COUNTS)
            check(same, "%s: same seed, equal per-layer count metrics" % w)

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
