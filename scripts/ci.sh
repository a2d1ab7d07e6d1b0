#!/usr/bin/env bash
# Tier-1 gate: full build, every test suite (including the parallel
# serial-vs-domains agreement suite), and a smoke run of the timing
# experiment with its JSON dump. Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build @all
dune runtest

# e21 exercises the Domains backend end to end and writes the phase
# timings (including the GSE sub-phase keys); keep it cheap but real.
# It also times the boxed oracle kernels on the engine's own pair list
# and positions, next to the flat pair phase every engine runs
# (bitwise-identical results, enforced by test_parallel).
dune exec bench/main.exe -- e21 --json /tmp/mdsp-timings.json
test -s /tmp/mdsp-timings.json
grep -q 'e21\.lr_spread_serial_us' /tmp/mdsp-timings.json
grep -q 'e21\.pair_soa_serial_us' /tmp/mdsp-timings.json
grep -q 'e21\.integrate_serial_us' /tmp/mdsp-timings.json
grep -q 'e21\.constraints_serial_us' /tmp/mdsp-timings.json
grep -q 'e21\.constraints_domains4_us' /tmp/mdsp-timings.json
grep -q 'e21\.thermostat_serial_us' /tmp/mdsp-timings.json

# The flat pair phase must not be slower than the boxed oracle kernels,
# and the Gc-metered flat 1-4 + pair kernels must allocate exactly zero
# minor words per pass.
awk -F': ' '
  /"e21\.soa_pair_speedup"/ {
    v = $2; gsub(/,/, "", v); found = 1
    if (v + 0 < 1.0) { print "ci: SoA pair phase slower than boxed (speedup " v ")"; exit 1 }
  }
  END { if (!found) { print "ci: e21.soa_pair_speedup missing"; exit 1 } }
' /tmp/mdsp-timings.json
grep -Eq '"e21\.soa_pair_minor_words_per_step": 0(,|$)' /tmp/mdsp-timings.json

# Phase-clock smoke: `mdsp run --timings` prints one row per charged
# phase name from the executor's clock; a pooled GSE water run must show
# the grid, constraint, thermostat and integrator phases.
dune exec bin/mdsp.exe -- run -p water4 --gse 16 --domains 2 -n 4 \
  --timings > /tmp/mdsp-run-timings.out
grep -q '^  gse\.spread ' /tmp/mdsp-run-timings.out
grep -q '^  constraints\.shake ' /tmp/mdsp-run-timings.out
grep -q '^  thermo\.langevin ' /tmp/mdsp-run-timings.out
grep -q '^  integrate\.drift ' /tmp/mdsp-run-timings.out
# One body per force reduction at every slot count: at one slot the fold
# phases still run (folding nothing), so the clock charges them there too.
dune exec bin/mdsp.exe -- run -p water4 --gse 16 --domains 1 -n 4 \
  --timings > /tmp/mdsp-run-timings-1.out
grep -q '^  soa\.reduce ' /tmp/mdsp-run-timings-1.out
grep -q '^  gse\.combine ' /tmp/mdsp-run-timings-1.out

# Exact-restart gate: `mdsp run --checkpoint/--restart` go through the
# engine snapshot format the ensembles and the job service use, so 20 + 20
# steps through a checkpoint must end byte-identical to 40 uninterrupted
# steps (RNG stream, thermostat, in-flight forces and neighbor list
# included), serial LJ and pooled GSE water alike.
for cfg in "-p lj64" "-p water4 --gse 16 --domains 2"; do
  # shellcheck disable=SC2086  # $cfg is a list of flags
  dune exec bin/mdsp.exe -- run $cfg -n 40 \
    --checkpoint /tmp/mdsp-restart-A.ckpt >/dev/null
  # shellcheck disable=SC2086
  dune exec bin/mdsp.exe -- run $cfg -n 20 \
    --checkpoint /tmp/mdsp-restart-B.ckpt >/dev/null
  # shellcheck disable=SC2086
  dune exec bin/mdsp.exe -- run $cfg -n 20 \
    --restart /tmp/mdsp-restart-B.ckpt \
    --checkpoint /tmp/mdsp-restart-C.ckpt >/dev/null
  cmp /tmp/mdsp-restart-A.ckpt /tmp/mdsp-restart-C.ckpt
done

# Verification gate: interval-analyze every built-in kernel, check every
# compiled table's domain/fit/quantization, race-sanitize all parallel
# phases at 1/2/4 slots, and certify the fixed-point datapaths for the
# registered envelopes. Must exit 0 on a clean tree with per-check JSON
# verdicts; --seed-hazard must fail (the analyzer self-test).
dune exec bin/mdsp.exe -- check --datapath --json /tmp/mdsp-verify.json
test -s /tmp/mdsp-verify.json
grep -q '"verify\.ok": 1' /tmp/mdsp-verify.json
grep -q '"kernel\.flat_bottom": 1' /tmp/mdsp-verify.json
grep -q '"table\.lj": 1' /tmp/mdsp-verify.json
grep -q '"sanitize\.slots4": 1' /tmp/mdsp-verify.json
grep -q '"datapath\.water\.ok": 1' /tmp/mdsp-verify.json
grep -q '"datapath\.water\.force_format": 1' /tmp/mdsp-verify.json
grep -q '"datapath\.water\.coeff_format": 1' /tmp/mdsp-verify.json
grep -q '"datapath\.water6k\.ok": 1' /tmp/mdsp-verify.json
grep -q '"datapath\.chain10k\.ok": 1' /tmp/mdsp-verify.json
if dune exec bin/mdsp.exe -- check --seed-hazard --slots 1 >/dev/null 2>&1; then
  echo "ci: mdsp check --seed-hazard unexpectedly passed" >&2
  exit 1
fi

# Phase-dataflow gate: record every parallel phase's read/write footprint
# through the sanitizer, derive the static happens-before graph, and
# require full coverage of the expected phase set, acyclicity and an
# identical graph shape at every slot count. The DOT render must be
# byte-identical at 1, 2 and 4 slots (the graph is slot-count invariant
# and the emitter is deterministic; 2 is the host's width and the
# benchmark pool's), and the deliberately racy seeded phase must fail
# (the conflict-matrix self-test).
dune exec bin/mdsp.exe -- check --phases --slots 1 \
  --dot /tmp/mdsp-phases-1.dot --json /tmp/mdsp-phases.json >/dev/null
test -s /tmp/mdsp-phases.json
grep -q '"phases\.ok": 1' /tmp/mdsp-phases.json
grep -q '"phases\.acyclic": 1' /tmp/mdsp-phases.json
grep -q '"phases\.invariant": 1' /tmp/mdsp-phases.json
grep -q '"phases\.coverage": 1' /tmp/mdsp-phases.json
# The engine's bonded terms run Bonded.all into the boxed accumulator,
# which seeds the flat store; a flat bonded mirror would drop this edge.
grep -q '"bonded.reduce" -> "soa.load"' /tmp/mdsp-phases-1.dot
dune exec bin/mdsp.exe -- check --phases --slots 2 \
  --dot /tmp/mdsp-phases-2.dot >/dev/null
dune exec bin/mdsp.exe -- check --phases --slots 4 \
  --dot /tmp/mdsp-phases-4.dot >/dev/null
cmp /tmp/mdsp-phases-1.dot /tmp/mdsp-phases-2.dot
cmp /tmp/mdsp-phases-1.dot /tmp/mdsp-phases-4.dot
# The batched constraint sweeps and thermostat sweeps are pool phases now;
# the rendered graph must carry them and their ordering edges.
grep -q '"constraints\.shake"' /tmp/mdsp-phases-1.dot
grep -q '"constraints\.rattle"' /tmp/mdsp-phases-1.dot
grep -q '"thermo\.langevin"' /tmp/mdsp-phases-1.dot
grep -q '"thermo\.scale"' /tmp/mdsp-phases-1.dot
if dune exec bin/mdsp.exe -- check --seed-race --slots 2 >/dev/null 2>&1; then
  echo "ci: mdsp check --seed-race unexpectedly passed" >&2
  exit 1
fi
# The planted cyclic phase pair is race-free, so the only branch that can
# reject it is acyclicity — and it must, even at one slot.
if dune exec bin/mdsp.exe -- check --seed-cycle --slots 1 >/dev/null 2>&1; then
  echo "ci: mdsp check --seed-cycle unexpectedly passed" >&2
  exit 1
fi

# Constraint-schedule gate: certify the fused cluster list the parallel
# SHAKE/RATTLE sweeps run, read off the solver itself (no two clusters
# share an atom, exactly-once cover, cross-slot footprint disjointness,
# registered largest-cluster envelopes), and require the planted pair of
# units sharing an atom to fail certification.
dune exec bin/mdsp.exe -- check --constraints --slots 1 \
  --json /tmp/mdsp-constraints.json >/dev/null
test -s /tmp/mdsp-constraints.json
grep -q '"constraints\.ok": 1' /tmp/mdsp-constraints.json
grep -q '"constraints\.water6k\.ok": 1' /tmp/mdsp-constraints.json
grep -q '"constraints\.water6k\.disjoint": 1' /tmp/mdsp-constraints.json
grep -q '"constraints\.water6k\.envelope": 1' /tmp/mdsp-constraints.json
grep -q '"constraints\.chain10k\.ok": 1' /tmp/mdsp-constraints.json
if dune exec bin/mdsp.exe -- check --seed-conflict --slots 1 >/dev/null 2>&1; then
  echo "ci: mdsp check --seed-conflict unexpectedly passed" >&2
  exit 1
fi
# The same gate at two slots. At one slot the unit list is a single tile,
# so cross-slot footprint disjointness holds trivially; at two it is
# checked on a real cut, and the planted pair must also be reported as an
# atom two slots touch.
dune exec bin/mdsp.exe -- check --constraints --slots 2 \
  --json /tmp/mdsp-constraints-2.json >/dev/null
test -s /tmp/mdsp-constraints-2.json
grep -q '"constraints\.ok": 1' /tmp/mdsp-constraints-2.json
grep -q '"constraints\.water6k\.ok": 1' /tmp/mdsp-constraints-2.json
grep -q '"constraints\.water6k\.disjoint": 1' /tmp/mdsp-constraints-2.json
grep -q '"constraints\.water6k\.envelope": 1' /tmp/mdsp-constraints-2.json
grep -q '"constraints\.chain10k\.ok": 1' /tmp/mdsp-constraints-2.json
if dune exec bin/mdsp.exe -- check --seed-conflict --slots 2 \
    >/tmp/mdsp-seed-conflict-2.txt 2>&1; then
  echo "ci: mdsp check --seed-conflict --slots 2 unexpectedly passed" >&2
  exit 1
fi
grep -q 'touched by slots 0 and 1' /tmp/mdsp-seed-conflict-2.txt

# Datapath certifier self-test: a deliberately narrowed force format must
# be rejected, with the offending accumulators named in the JSON verdicts.
if dune exec bin/mdsp.exe -- check --seed-narrow --slots 1 \
    --json /tmp/mdsp-verify-narrow.json >/dev/null 2>&1; then
  echo "ci: mdsp check --seed-narrow unexpectedly passed" >&2
  exit 1
fi
grep -q '"datapath\.water\[narrow32\]\.ok": 0' /tmp/mdsp-verify-narrow.json
grep -q '"datapath\.water\[narrow32\]\.force_format": 0' /tmp/mdsp-verify-narrow.json
grep -q '"datapath\.water\.ok": 1' /tmp/mdsp-verify-narrow.json

# Ensemble smoke: the sharded-REMD CLI path end to end, then e22 with its
# JSON dump — e22 also asserts sharded ≡ sequential bitwise internally.
dune exec bin/mdsp.exe -- ensemble --replicas 4 --domains 2 --steps 50
dune exec bench/main.exe -- e22 --json /tmp/e22.json
test -s /tmp/e22.json
grep -q 'e22\.identical' /tmp/e22.json
grep -q 'e22\.shard_sweeps_per_s' /tmp/e22.json
grep -q 'e22\.exchange_bytes_per_step' /tmp/e22.json

# Multi-node smoke: e23 decomposes water6k/chain10k coordinates over
# 8..512-node tori, prices the torus traffic, and must report the
# exactly-once pair assignment verified against the single-node cell
# list on every frame, with finite comm times; the project CLI must
# reach the same verdict end to end.
dune exec bench/main.exe -- e23 --json /tmp/e23.json
test -s /tmp/e23.json
grep -q '"e23\.pair_once_ok": 1' /tmp/e23.json
grep -Eq '"e23\.water6k\.n8\.comm_s": [0-9]' /tmp/e23.json
grep -Eq '"e23\.water6k\.n512\.ns_day": [0-9]' /tmp/e23.json
dune exec bin/mdsp.exe -- project -p water6k --nodes 2,2,2 \
  | grep -q 'exactly-once pair assignment: ok'

# Service smoke: spool a job, pipe a status + blocking result request
# through `mdsp serve` (EOF drains the queue, so the server finishes the
# job before exiting), and verify the job completed, the result carries
# observables, and the spool directory has no orphans (leftover .tmp
# staging files or records without a .job spec).
SPOOL="$(mktemp -d /tmp/mdsp-spool.XXXXXX)"
JOB_ID="$(dune exec bin/mdsp.exe -- submit --dir "$SPOOL" -p lj64 \
  --steps 120 -t 120 --porcelain)"
printf '{"op":"status","id":"%s"}\n{"op":"result","id":"%s"}\n' \
  "$JOB_ID" "$JOB_ID" \
  | dune exec bin/mdsp.exe -- serve --dir "$SPOOL" --quantum 40 \
  > /tmp/mdsp-serve.out
grep -q '"ok":true,"op":"status"' /tmp/mdsp-serve.out
grep -q '"ok":true,"op":"result"' /tmp/mdsp-serve.out
grep -q '"e_total":' /tmp/mdsp-serve.out
dune exec bin/mdsp.exe -- jobs --dir "$SPOOL" | grep -q "^$JOB_ID  *done"
dune exec bin/mdsp.exe -- jobs --dir "$SPOOL" --check \
  | grep -q 'spool clean: no orphans'
rm -rf "$SPOOL"

# Torn-record gate: a .state record cut short must leave its job failed,
# never read back as a runnable pending job, and `mdsp jobs --check` must
# exit 1 naming the file.
SPOOL="$(mktemp -d /tmp/mdsp-spool.XXXXXX)"
JOB_ID="$(dune exec bin/mdsp.exe -- submit --dir "$SPOOL" -p lj64 \
  --steps 120 -t 120 --porcelain)"
head -n 2 "$SPOOL/$JOB_ID.state" > /tmp/mdsp-torn.state
mv /tmp/mdsp-torn.state "$SPOOL/$JOB_ID.state"
dune exec bin/mdsp.exe -- jobs --dir "$SPOOL" | grep -q "^$JOB_ID  *failed"
status=0
dune exec bin/mdsp.exe -- jobs --dir "$SPOOL" --check \
  > /tmp/mdsp-torn.out || status=$?
test "$status" -eq 1
grep -q "^orphan: $JOB_ID\.state: unreadable" /tmp/mdsp-torn.out
rm -rf "$SPOOL"

# e24 drives the scheduler under a 16-client burst at 1/2/4 slots; every
# preempted job must end bitwise identical to its uninterrupted reference
# (e24.identity 1), and the throughput/turnaround keys must be present.
dune exec bench/main.exe -- e24 --json /tmp/e24.json
test -s /tmp/e24.json
grep -q '"e24\.identity": 1' /tmp/e24.json
grep -Eq '"e24\.slots1\.jobs_per_hour": [0-9]' /tmp/e24.json
grep -Eq '"e24\.slots2\.jobs_per_hour": [0-9]' /tmp/e24.json
grep -Eq '"e24\.slots4\.jobs_per_hour": [0-9]' /tmp/e24.json
grep -Eq '"e24\.slots4\.p95_turnaround_s": [0-9]' /tmp/e24.json

# Documentation gate: the odoc comments in the .mli files must stay
# well-formed. Gated on odoc being installed so the script still runs in
# minimal local environments.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "ci: odoc not installed, skipping dune build @doc"
fi

# Formatting gate, same pattern: only enforced where ocamlformat exists
# AND the repo has committed to a profile via a .ocamlformat file.
if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  dune build @fmt
else
  echo "ci: ocamlformat not configured, skipping dune build @fmt"
fi

echo "ci: OK"
