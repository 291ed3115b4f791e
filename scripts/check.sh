#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#   - full build
#   - the unit/integration/property suites (includes the GC-regression
#     allocation guards, also run below by name so a suite filter can't
#     silently drop them)
#   - the six examples/*.exe programs, whose own asserts check what
#     they build
#   - a bench smoke run exercising the --json perf-trajectory and
#     --trace event-stream paths; the emitted JSON must carry the
#     spanner-bench/10 "faults", "csr" and "frugal" rows (the frugal row's physical message
#     accounting, its identical=1 contract flag and the auto-mode
#     >= 1.0x fields)
#   - a CSR scale smoke: the e18 anchor (10^4-vertex gnp) must stream-
#     build, BFS and flood inside a hard time budget, and the CSR
#     builder's GC guard (10^5 vertices under a minor-words ceiling)
#     is run by name so a suite filter can't drop it, and so is the
#     row-merge Ugraph.apply_delta property (random graphs x valid
#     delta streams against a from-scratch rebuild, plus rejected
#     deltas' exact messages), and so is the churn tick's certify
#     property (random graphs x churn streams x fault schedules: every
#     tick's local verdict and the whole-graph check read valid)
#   - a tiny spanner_cli trace run (its exit status asserts that the
#     per-round series reconciles with the engine metrics), run both
#     sequentially and with --par 2: the two reports must be
#     byte-identical (the round engine's determinism contract) — and
#     the same byte-diff again under a fault schedule, where the
#     adversary's coin stream joins the determinism contract
#   - a spanner_cli faults smoke run: the survivor-quality report must
#     come back VALID (exit 0) for a LOCAL run under drops+crashes
#     with retransmission
#   - a spanner_cli churn smoke run: every repaired tick must be valid
#     and agree with its own local verdict, faulted ticks included
#     (exit 0, and all-valid=true on the faulted table), the
#     --recompute column must be wired, and the per-tick tables must
#     be byte-identical across --par 1/2, plain and faulted (validity
#     and naive/par determinism of whole churn traces are pinned in
#     test/test_incremental.ml)
#   - the profiling subsystem: the bench JSON must carry the schema-7
#     "profile" rows, spanner_cli profile --chrome must emit a
#     Perfetto-loadable trace_event array whose every event parses
#     with the repo's own flat-JSON codec (asserted by the test suite;
#     here the file must exist, be an array, and be non-trivial), and
#     bench_diff must (a) pass the two checked-in trajectories
#     (BENCH_PR5.json vs BENCH_PR6.json) under default tolerances and
#     (b) gate a fresh e1 e13 run against BENCH_PR9.json in --strict
#     mode: deterministic fields must match exactly, timing may drift
#     up to 3x (the retired "seq_vs_par", "alloc" and "churn" sections,
#     and the "micro_ns_per_run", "faults" and "csr" sections an
#     e1 e13 run does not emit, show up as named "section removed"
#     lines — informational, not a failure)
#   - the serving subsystem: a spannerd on an ephemeral port must
#     answer a spanner_cli session script (including a malformed line
#     the connection survives) with a reply transcript that is
#     byte-identical across two fresh daemon runs and shut down cleanly
#     on request; two sessions running at once against one daemon
#     must read identical, ERR-free transcripts. Serving performance
#     is measured by perfbench's serve_mixed workload, not here.
#   - the message-frugality layer: span --frugal must produce the
#     same spanner (exit 0 implies the internal identity assertions
#     held) and print the physical summary; the default trace table
#     must stay byte-identical with and without --frugal once the
#     --frugal-only "physical:" summary and the "msg-bits:" histogram
#     (which deliberately describes the physical stream) are
#     filtered — everything the protocol computes from is unchanged
# Run from the repository root: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest
# The zero-allocation mailbox guard, explicitly.
dune exec test/test_engine_sched.exe -- test allocation > /dev/null
# The CSR builder's GC guard (10^5 vertices, fixed minor-words
# ceiling), explicitly.
dune exec test/test_csr.exe -- test gc > /dev/null
# The row-merge apply_delta property, explicitly.
dune exec test/test_csr.exe -- test merge > /dev/null
# The churn tick's certify property and its patched faulted trace,
# explicitly.
dune exec test/test_incremental.exe -- test certify > /dev/null
# The LOCAL density phase's GC guard (one clique-ladder bootstrap under
# a fixed minor-words ceiling), explicitly.
dune exec test/test_local_protocol.exe -- test gc > /dev/null
# The checker kernel's GC guard (is_spanner ~k:3, stretch and
# Spanner_stats.compute on a 3000-vertex spanner under a fixed words
# ceiling), explicitly.
dune exec test/test_checker.exe -- test gc > /dev/null
# The examples assert their own results valid (quickstart also prints
# Spanner_stats), so run them rather than only building them.
for ex in quickstart synchronizer client_server_design lower_bound_demo \
  mds_congest network_upgrade; do
  dune exec "examples/$ex.exe" > /dev/null
done

# e1's anchors make thousands of flow-path densest-star calls, so
# gating their engine metrics pins that oracle's answers.
benchjson=$(mktemp)
dune exec bench/main.exe -- e1 e13 --json "$benchjson" --trace /dev/null
# The perf trajectory must be schema 10 and expose the profile
# section's histogram percentiles and per-phase rows.
grep -q '"schema": "spanner-bench/10"' "$benchjson"
grep -q '"profile"' "$benchjson"
grep -q '"bits_p50"' "$benchjson"
grep -q '"round_ns_p99"' "$benchjson"
grep -q '"phase_' "$benchjson"
# The frugality A/B rows for the selected protocol anchor: physical
# message accounting plus the bit-identity contract flags (the bench
# itself fail-hards on any logical divergence before emitting them).
grep -q '"frugal"' "$benchjson"
grep -q '"fr_e13_local_protocol"' "$benchjson"
grep -q '"physical_messages"' "$benchjson"
grep -q '"message_reduction"' "$benchjson"
grep -q '"suppressed"' "$benchjson"
grep -q '"identical": 1' "$benchjson"
grep -q '"identical_faulted": 1' "$benchjson"
# The frugal auto probe: its physical stream must be recorded next to
# the Always-mode one, with the logical-identity contract re-asserted
# (the bench fail-hards if auto ever lands above 1.0x or diverges).
grep -q '"auto_message_reduction"' "$benchjson"
grep -q '"auto_identical": 1' "$benchjson"
# The bench-trajectory regression gate, both ways it is used:
# checked-in PR5 vs PR6 must pass the calibrated defaults, and the
# fresh e1 e13 run just emitted must match BENCH_PR9.json exactly on
# every deterministic field (--strict) with a wide allowance on this
# machine's wall clock.
dune exec bench/diff.exe -- BENCH_PR5.json BENCH_PR6.json > /dev/null
dune exec bench/diff.exe -- BENCH_PR9.json "$benchjson" \
  --strict --tolerance 2.0 > /dev/null
rm -f "$benchjson"
# The fault sweep: e17 selects the fault anchors, whose JSON rows must
# carry the survivor-quality fields.
benchjson=$(mktemp)
dune exec bench/main.exe -- e17 --json "$benchjson" > /dev/null
grep -q '"faults"' "$benchjson"
grep -q '"drop_p"' "$benchjson"
grep -q '"surviving_output"' "$benchjson"
grep -q '"dropped"' "$benchjson"
grep -q '"crashed"' "$benchjson"
rm -f "$benchjson"
# The CSR scale section: the e18 smoke anchor (streaming gnp build +
# BFS + seq/par flood on 10^4 vertices) must finish inside the budget
# and its JSON rows must carry the layout fields.
benchjson=$(mktemp)
timeout 120 dune exec bench/main.exe -- e18 --json "$benchjson" > /dev/null
grep -q '"csr"' "$benchjson"
grep -q '"csr_gnp_10k"' "$benchjson"
grep -q '"build_ms"' "$benchjson"
grep -q '"resident_bytes"' "$benchjson"
grep -q '"flood_identical"' "$benchjson"
rm -f "$benchjson"
tmpgraph=$(mktemp)
seqrep=$(mktemp)
parrep=$(mktemp)
trap 'rm -f "$tmpgraph" "$seqrep" "$parrep"' EXIT
dune exec bin/spanner_cli.exe -- generate --family caveman -n 24 --seed 1 \
  "$tmpgraph" > /dev/null
# Both runs must reconcile (exit 0) and agree byte for byte: the trace
# report contains no wall-clock columns, so any divergence is a real
# determinism break in the parallel stepping path.
dune exec bin/spanner_cli.exe -- trace "$tmpgraph" -a local --limit 4 \
  --jsonl /dev/null > "$seqrep"
dune exec bin/spanner_cli.exe -- trace "$tmpgraph" -a local --limit 4 \
  --par 2 --jsonl /dev/null > "$parrep"
diff "$seqrep" "$parrep"

# The same determinism contract under a fault schedule: the adversary's
# coin stream is consulted on the serial merge path, so the faulted
# traces must also be byte-identical across shard counts.
sched='drop=0.08,crash=0.1@r3,seed=13'
dune exec bin/spanner_cli.exe -- trace "$tmpgraph" -a local --limit 4 \
  --schedule "$sched" --retry 3 > "$seqrep"
dune exec bin/spanner_cli.exe -- trace "$tmpgraph" -a local --limit 4 \
  --schedule "$sched" --retry 3 --par 2 > "$parrep"
diff "$seqrep" "$parrep"
grep -q 'dropped' "$seqrep"

# Survivor-quality smoke: LOCAL under drops+crashes with retransmission
# must grade VALID (the subcommand exits non-zero otherwise).
dune exec bin/spanner_cli.exe -- faults "$tmpgraph" \
  --schedule "$sched" --retry 3 > /dev/null

# Message frugality: span --frugal must run (its physical summary line
# proves the wire stream shrank below the logical count), and the
# default trace table must be byte-identical with and without --frugal
# once the --frugal-only "physical:" summary line and the "msg-bits:"
# histogram (which deliberately shows the physical stream under
# --frugal) are filtered out — spanner, rounds, logical messages/bits,
# phase counts and the reconciliation line must not move.
dune exec bin/spanner_cli.exe -- span "$tmpgraph" -a local --frugal \
  > "$seqrep"
grep -q '^physical: messages=' "$seqrep"
# Auto mode must also run clean (exit 0 implies the same identity
# assertions held after the observe-then-arm decision) and print its
# physical summary.
dune exec bin/spanner_cli.exe -- span "$tmpgraph" -a local --frugal=auto \
  > "$seqrep"
grep -q '^physical: messages=' "$seqrep"
dune exec bin/spanner_cli.exe -- trace "$tmpgraph" -a local --limit 4 \
  > "$seqrep"
dune exec bin/spanner_cli.exe -- trace "$tmpgraph" -a local --limit 4 \
  --frugal > "$parrep"
grep -v '^physical:' "$parrep" | grep -v '^msg-bits:' > "$parrep.f"
grep -v '^msg-bits:' "$seqrep" > "$seqrep.f"
diff "$seqrep.f" "$parrep.f"
rm -f "$seqrep.f" "$parrep.f"

# Churn smoke: the incremental-repair subcommand must bootstrap, apply
# a few churn ticks and certify the repaired spanner valid after every
# one (exit 0 is the per-tick validity contract; the recompute A/B
# column must also appear so the repair-vs-full split stays wired).
dune exec bin/spanner_cli.exe -- churn "$tmpgraph" --ticks 3 \
  --rate 0.02 --recompute > "$seqrep"
grep -q 'valid' "$seqrep"
grep -q 'speedup' "$seqrep"
# And the determinism contract extends to repair: once the wall-clock
# tokens are stripped, the per-tick table must be byte-identical across
# shard counts (seeds, broken certificates, dirty-ball sizes, spanner
# sizes and validity all come from the same deterministic pipeline).
dune exec bin/spanner_cli.exe -- churn "$tmpgraph" --ticks 3 \
  --rate 0.02 | sed -E 's/ *[0-9.]+ ?ms//g' > "$seqrep"
dune exec bin/spanner_cli.exe -- churn "$tmpgraph" --ticks 3 \
  --rate 0.02 --par 2 | sed -E 's/ *[0-9.]+ ?ms//g' > "$parrep"
diff "$seqrep" "$parrep"
# Churn composes with the adversary: each repair tick runs under the
# fault schedule and still ends valid (a broken edge the faulted
# repair leaves uncovered joins the spanner directly), the adversary's
# coin stream joins the determinism contract, and the per-tick table
# stays byte-identical across shard counts once wall-clock tokens are
# stripped. The pipe hides the CLI's exit status, so the table's own
# verdict is asserted.
dune exec bin/spanner_cli.exe -- churn "$tmpgraph" --ticks 3 \
  --rate 0.02 --schedule "$sched" --retry 3 \
  | sed -E 's/ *[0-9.]+ ?ms//g' > "$seqrep"
grep -q 'on every repair run' "$seqrep"
grep -q 'all-valid=true' "$seqrep"
dune exec bin/spanner_cli.exe -- churn "$tmpgraph" --ticks 3 \
  --rate 0.02 --schedule "$sched" --retry 3 --par 2 \
  | sed -E 's/ *[0-9.]+ ?ms//g' > "$parrep"
diff "$seqrep" "$parrep"

# Profiler smoke: the profile subcommand must produce a per-phase
# breakdown and a Chrome trace_event file that is a JSON array with
# actual events in it (full per-event codec validation lives in
# test/test_profile.ml).
chromejson=$(mktemp)
profrep=$(mktemp)
dune exec bin/spanner_cli.exe -- profile "$tmpgraph" -a local --par 2 \
  --chrome "$chromejson" > "$profrep"
grep -q '^phase' "$profrep"
rm -f "$profrep"
head -c 1 "$chromejson" | grep -q '\['
grep -q '"ph":"X"' "$chromejson"
grep -q '"cat":"round"' "$chromejson"
grep -q '"cat":"shard"' "$chromejson"
rm -f "$chromejson"

# Serving smoke: a scripted session against two FRESH daemons on
# ephemeral ports must produce byte-identical reply transcripts (the
# replies carry no wall-clock, pid or address material), including an
# ERR line the connection survives; SHUTDOWN must stop the daemon
# cleanly (exit 0).
spannerd=./_build/default/bin/spannerd.exe
cli=./_build/default/bin/spanner_cli.exe
session=$(mktemp)
cat > "$session" <<'EOF'
# scripted spannerd session — replies must be deterministic
LOAD caveman 24 0.1 7
QUERY 0 5
SUBSCRIBE
CHURN -0-1 +0-13
UNSUBSCRIBE
QUERY 0 1
GARBAGE this line must ERR without killing the connection
STATS
SHUTDOWN
EOF
run_scripted() {
  pf=$(mktemp -u)
  "$spannerd" --port 0 --port-file "$pf" > /dev/null &
  dpid=$!
  for _ in $(seq 1 100); do [ -s "$pf" ] && break; sleep 0.1; done
  [ -s "$pf" ]
  "$cli" session --port "$(cat "$pf")" "$session" > "$1"
  wait "$dpid"
  rm -f "$pf"
}
run_scripted "$seqrep"
run_scripted "$parrep"
diff "$seqrep" "$parrep"
grep -q '^OK LOADED ' "$seqrep"
grep -q '^EVENT ' "$seqrep"
grep -q '^ERR ' "$seqrep"
# STATS comes after the ERR line, so the connection survived it.
grep -q '^STATS {' "$seqrep"

# Concurrency smoke: two sessions querying one daemon at the same time
# must each get one PATH/NOPATH reply per QUERY (no ERR), byte-identical
# between them; SHUTDOWN from a third session must stop the daemon
# cleanly (exit 0).
for i in $(seq 1 200); do
  echo "QUERY $i $(( (i * 37 + 1000) % 2000 ))"
done > "$session"
pf=$(mktemp -u)
"$spannerd" --port 0 --port-file "$pf" --preload "caveman 2000 0.1 7" \
  > /dev/null &
dpid=$!
for _ in $(seq 1 100); do [ -s "$pf" ] && break; sleep 0.1; done
[ -s "$pf" ]
"$cli" session --port "$(cat "$pf")" "$session" > "$seqrep" &
c1=$!
"$cli" session --port "$(cat "$pf")" "$session" > "$parrep" &
c2=$!
wait "$c1"
wait "$c2"
diff "$seqrep" "$parrep"
if grep -q '^ERR' "$seqrep"; then
  echo "check.sh: concurrent session got ERR replies" >&2
  exit 1
fi
[ "$(grep -c -e '^PATH ' -e '^NOPATH ' "$seqrep")" -eq 200 ]
echo SHUTDOWN > "$session"
"$cli" session --port "$(cat "$pf")" "$session" > /dev/null
wait "$dpid"
rm -f "$pf" "$session"

echo "check.sh: all green"
