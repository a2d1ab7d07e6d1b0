#!/usr/bin/env bash
# Runs the repository benchmark in alternating pairs, a base revision
# against this checkout, and compares the two record sets:
#
#   bash scripts/bench_pairs.sh BASE_REV [PAIRS] [WORKLOAD...]
#
# BASE_REV (any git revision) is unpacked with git archive into a
# temporary directory, so the script writes nothing under .git. For seeds 1..PAIRS (default 10) and every workload (default: the
# workloads BENCHMARK.json declares), it runs
#
#   bash bench/perf/run.sh --workload W --seed k --trace 0
#
# once in the base copy and once in this checkout, at perf.exe's
# default window (the benchmark's 15 s). Odd seeds run the base first,
# even seeds this checkout first, so a drift in host speed does not
# favour one side. bench/perf/diff.exe then compares the base records
# with this checkout's; its table goes to stdout and the script exits
# with its status (1 when a row is worse). Run it from the root of the
# checkout with nothing else loading the machine. Uncommitted changes in
# this checkout are measured as they are. The base copy is removed on
# exit; the records stay in a temporary directory whose path is printed
# at the end.
set -euo pipefail

usage="usage: bash scripts/bench_pairs.sh BASE_REV [PAIRS] [WORKLOAD...]"
if [ $# -lt 1 ]; then
  echo "$usage" >&2
  exit 2
fi
base_rev=$1
shift
pairs=10
if [ $# -gt 0 ]; then
  pairs=$1
  shift
fi
case $pairs in
  '' | *[!0-9]* | 0) echo "bench_pairs: PAIRS must be a positive integer; $usage" >&2; exit 2 ;;
esac

if [ ! -f BENCHMARK.json ] || [ ! -f bench/perf/run.sh ]; then
  echo "bench_pairs: run from the root of an mdsp checkout" >&2
  exit 2
fi
head_dir=$(pwd)

if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json)
  if [ ${#workloads[@]} -eq 0 ]; then
    echo "bench_pairs: no workloads found in BENCHMARK.json" >&2
    exit 2
  fi
fi

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
work=$(mktemp -d)
base_dir="$work/base"
cleanup() {
  rm -rf "$base_dir"
}
trap cleanup EXIT
mkdir "$base_dir"
git archive "$base_sha" | tar -x -C "$base_dir"
mkdir -p "$work/old" "$work/new"

# run DIR OUT W K: one benchmark run in checkout DIR, record into OUT. A
# run whose checks fail still writes its record; it is counted and the
# pairs go on.
failed=0
run() {
  if ! (cd "$1" && bash bench/perf/run.sh --workload "$3" --seed "$4" \
    --trace 0 --out "$2" >/dev/null); then
    echo "bench_pairs: $3 seed $4 in $1 failed a check or did not finish" >&2
    failed=$((failed + 1))
  fi
}

echo "bench_pairs: base $base_rev ($base_sha) vs $head_dir; $pairs pairs of ${workloads[*]}" >&2
for k in $(seq 1 "$pairs"); do
  for w in "${workloads[@]}"; do
    if [ $((k % 2)) -eq 1 ]; then
      run "$base_dir" "$work/old" "$w" "$k"
      run "$head_dir" "$work/new" "$w" "$k"
    else
      run "$head_dir" "$work/new" "$w" "$k"
      run "$base_dir" "$work/old" "$w" "$k"
    fi
    echo "bench_pairs: seed $k $w done" >&2
  done
done

DUNE_CACHE=disabled dune build --root . bench/perf/diff.exe 1>&2
status=0
./_build/default/bench/perf/diff.exe --bench BENCHMARK.json "$work"/old/*.json \
  -- "$work"/new/*.json || status=$?
echo "bench_pairs: $failed failed runs; records in $work/old (base) and $work/new (this checkout)" >&2
exit "$status"
