#!/usr/bin/env bash
# Builds perf.exe from the sources of this checkout and runs it with the
# arguments given. Run from the root of the checkout, e.g.
#
#   bash bench/perf/run.sh --workload water2k_gse --seed 1 --seconds 15 --trace 0
#
# The build goes to _build/ in the checkout and its log to stderr, so the
# last line of stdout stays perf.exe's JSON summary.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no dune-project or lib/ here; run from the root of an mdsp checkout" >&2
  exit 2
fi

# No shared dune cache: the build writes nothing outside the checkout.
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
