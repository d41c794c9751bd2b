#!/usr/bin/env bash
# Paired A/B run of the end-to-end benchmark: a base git revision against
# the current working tree (uncommitted changes included).
#
#   tools/perfbench_ab.sh BASE_REV [--workload W] [--pairs N] [--seconds S]
#                         [--seed0 K] [--out DIR]
#
# The base revision is checked out with `git worktree` into a temporary
# directory and removed again on exit. Each side builds its own sources the
# way the benchmark does (perfbench/run.py, into that side's .bench_build/).
# Pair i runs `python3 perfbench/run.py --workload W --seed K+i-1
# --seconds S --trace 0` once per side, alternating which side goes first so
# host drift does not favour either. `--workload all` runs every workload
# of BENCHMARK.json in turn, each with the same pairs and seeds. Defaults:
# durable_ingest, 10 pairs, 30 s, seed0 1.
#
# For every end-to-end metric of BENCHMARK.json the summary prints, per
# workload, each side's median and quartiles, how many pairs the change
# won, whether a gain would count as a claim (`claim`: the change wins at
# least 9 in 10 pairs and its median beats the base median by more than
# the base's interquartile range), and whether the change is rejected as a
# regression (`bound`: WORSE when the change's median is worse than the
# base median by more than the metric's `bound` in BENCHMARK.json, a
# fraction of the base median; else unresolved when the base's
# interquartile range is wider than that same bound, so the runs cannot
# tell a regression from noise, unless every change run beats every base
# run; ok otherwise). After each workload's summary
# one line per pair gives the seed and each side's read_p50_us and
# write_p50_us: a pair where one side drew a slow host mode shows both of
# its latencies up together. Such a pair is marked `split (base)` or
# `split (change)` when that side's read_p50_us and write_p50_us are both
# worse than the other side's by more than the metrics' BENCHMARK.json
# bounds (fractions of the other side's value), and a last line counts the
# split pairs each side lost. Split pairs stay in the medians above: the
# marks say how far to trust them. `--out DIR` keeps the raw per-run JSON
# lines.

set -euo pipefail

usage() { sed -n '2,36p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }

[[ $# -ge 1 ]] || usage
BASE_REV=$1
shift
WORKLOAD=durable_ingest
PAIRS=10
SECONDS_PER_RUN=30
SEED0=1
OUT=""
while [[ $# -gt 0 ]]; do
  case $1 in
    --workload) WORKLOAD=$2; shift 2 ;;
    --pairs) PAIRS=$2; shift 2 ;;
    --seconds) SECONDS_PER_RUN=$2; shift 2 ;;
    --seed0) SEED0=$2; shift 2 ;;
    --out) OUT=$2; shift 2 ;;
    *) usage ;;
  esac
done

ROOT=$(git rev-parse --show-toplevel)
if [[ $WORKLOAD == all ]]; then
  mapfile -t WORKLOADS < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$ROOT/BENCHMARK.json")
else
  WORKLOADS=("$WORKLOAD")
fi
TMP=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_ab.XXXXXX")
BASE="$TMP/base"
cleanup() {
  git -C "$ROOT" worktree remove --force "$BASE" > /dev/null 2>&1 || true
  git -C "$ROOT" worktree prune > /dev/null 2>&1 || true
  rm -rf "$TMP"
}
trap cleanup EXIT
git -C "$ROOT" worktree add --detach "$BASE" "$BASE_REV" > /dev/null

RESULTS="$TMP/results"
mkdir -p "$RESULTS"

# run_side WORKLOAD DIR NAME PAIR SEED: one benchmark run; keeps its last
# output line.
run_side() {
  local workload=$1 dir=$2 name=$3 pair=$4 seed=$5
  echo "$workload pair $pair/$PAIRS: $name (seed $seed)" >&2
  (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
       --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
       2> /dev/null | tail -n 1) > "$RESULTS/$workload.$name.$pair.json"
}

echo "building base ($BASE_REV) and change ($ROOT)" >&2
for dir in "$BASE" "$ROOT"; do
  (cd "$dir" && python3 perfbench/run.py --workload "${WORKLOADS[0]}" \
       --seed 0 --seconds 1 --trace 0 > /dev/null 2>&1) ||
    { echo "perfbench_ab: build or run failed in $dir" >&2; exit 1; }
done

for workload in "${WORKLOADS[@]}"; do
  for ((i = 1; i <= PAIRS; ++i)); do
    seed=$((SEED0 + i - 1))
    if ((i % 2 == 1)); then
      run_side "$workload" "$BASE" base "$i" "$seed"
      run_side "$workload" "$ROOT" change "$i" "$seed"
    else
      run_side "$workload" "$ROOT" change "$i" "$seed"
      run_side "$workload" "$BASE" base "$i" "$seed"
    fi
  done
done

if [[ -n $OUT ]]; then
  mkdir -p "$OUT"
  cp "$RESULTS"/*.json "$OUT"/
fi

for workload in "${WORKLOADS[@]}"; do
python3 - "$ROOT/BENCHMARK.json" "$RESULTS" "$PAIRS" "$workload" \
    "$BASE_REV" "$SEED0" <<'EOF'
import json
import statistics
import sys

spec_path, results, pairs, workload, base_rev, seed0 = sys.argv[1:]
pairs = int(pairs)
seed0 = int(seed0)
spec = json.load(open(spec_path))


def load(side, i):
    with open("%s/%s.%s.%d.json" % (results, workload, side, i)) as f:
        return json.loads(f.read())


runs = {side: [load(side, i) for i in range(1, pairs + 1)]
        for side in ("base", "change")}
for side, rs in runs.items():
    bad = [i + 1 for i, r in enumerate(rs)
           if not r.get("correct") or r.get("failed", 0)]
    if bad:
        print("WARNING: %s runs %s report incorrect or failed statements"
              % (side, bad))


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


print("workload %s, %d pairs, base %s vs working tree" %
      (workload, pairs, base_rev))
print("%-24s %-30s %-30s %8s %6s  %-6s %s" %
      ("metric", "base median [q1, q3]", "change median [q1, q3]",
       "delta", "wins", "claim", "bound"))
need = -(-9 * pairs // 10)  # ceil(0.9 * pairs)
for metric in spec["end_to_end"]:
    name = metric["name"]
    lower = metric["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    bq, cq = quartiles(b), quartiles(c)
    wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(b, c))
    gap = (bq[1] - cq[1]) if lower else (cq[1] - bq[1])
    holds = wins >= need and gap > bq[2] - bq[0]
    delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
    limit = metric["bound"] * abs(bq[1])
    worse = -gap > limit
    beats_all = max(c) < min(b) if lower else min(c) > max(b)
    unresolved = bq[2] - bq[0] > limit and not beats_all
    print("%-24s %-30s %-30s %+7.1f%% %3d/%-2d  %-6s %s" %
          (name, "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
           "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]), delta, wins, pairs,
           "holds" if holds else "no",
           "WORSE" if worse else "unresolved" if unresolved else "ok"))
print()


# Per pair: both latencies of one side rising together is a host mode, not
# an effect of the change on one path.
P50S = ("read_p50_us", "write_p50_us")
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}


def p50s(r):
    m = r["metrics"]
    return "%.4g / %.4g" % tuple(m[name]["value"] for name in P50S)


def lost_both(r, other):
    # r's read and write p50 are both worse than other's past their bounds.
    return all(r["metrics"][name]["value"] >
               other["metrics"][name]["value"] * (1 + bounds[name])
               for name in P50S)


print("%-6s %-28s %-28s %s" % ("seed", "base read/write p50 us",
                               "change read/write p50 us", "split"))
split = {"base": 0, "change": 0}
for i, (br, cr) in enumerate(zip(runs["base"], runs["change"])):
    mark = ""
    for side, r, other in (("base", br, cr), ("change", cr, br)):
        if lost_both(r, other):
            split[side] += 1
            mark = "split (%s)" % side
    print(("%-6d %-28s %-28s %s" % (seed0 + i, p50s(br), p50s(cr),
                                    mark)).rstrip())
print("split pairs lost: base %d, change %d (read and write p50 both worse "
      "by more than %g / %g)" % (split["base"], split["change"],
                                 bounds[P50S[0]], bounds[P50S[1]]))
print()
EOF
done
