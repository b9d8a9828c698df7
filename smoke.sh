#!/bin/sh
# End-to-end smokes over the built `eitc` binary: the fallback sweep,
# a fallback that fails without a crash, trace, trace-analytics and
# live-metrics smokes, the MATMUL and ARF node guards, §4.3's figures (Table 2,
# the simulator cross-checks, utilization, `eitc modulo`), the
# serve / cache / telemetry / postmortem / tail-keep smokes, a guard
# that `bench profile --path` leaves BENCH_solver.json, and any file
# that is not a report, alone, and a run of seven of the examples, each
# matched on its verification line.  `check.sh` runs this after the build
# and the test suite; run it on its own to reach these checks while a
# test fails.  Exits non-zero on any failure.
set -e
cd "$(dirname "$0")"
dune build ./bin/eitc.exe

# Graceful-degradation contract: at a 0 ms budget the CP engine cannot
# produce anything, so every kernel must come back from the heuristic
# fallback — validator-clean, exit code 2 (degraded-but-usable).
EITC=_build/default/bin/eitc.exe
for k in matmul qrd qrd-sorted arf fir corr detect; do
  out=$("$EITC" schedule "$k" --budget 0) && code=0 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "smoke.sh: $k at --budget 0: expected exit 2 (fallback), got $code" >&2
    echo "$out" >&2
    exit 1
  fi
  case "$out" in
  *"engine=fallback"*) ;;
  *)
    echo "smoke.sh: $k at --budget 0: fallback engine not reported" >&2
    echo "$out" >&2
    exit 1
    ;;
  esac
done
echo "smoke.sh: fallback sweep OK (7 kernels, exit 2, validated)"

# A fallback that fails is no crash: QRD in 7 slots at a 0 ms budget
# has no CP schedule and the greedy finds no legal slot.  Exit 4, the
# greedy's reason on a `fallback:` line, and no `crash:` line.
out=$("$EITC" schedule qrd --slots 7 --budget 0) && code=0 || code=$?
if [ "$code" -ne 4 ]; then
  echo "smoke.sh: qrd --slots 7 --budget 0: expected exit 4, got $code" >&2
  echo "$out" >&2
  exit 1
fi
case "$out" in
*"crash:"*)
  echo "smoke.sh: qrd --slots 7 --budget 0: a failed fallback reported as a crash" >&2
  echo "$out" >&2
  exit 1
  ;;
esac
case "$out" in
*"fallback: no legal slot for datum"*) ;;
*)
  echo "smoke.sh: qrd --slots 7 --budget 0: the fallback's reason is missing" >&2
  echo "$out" >&2
  exit 1
  ;;
esac
echo "smoke.sh: failed-fallback smoke OK (qrd, 7 slots: exit 4, reason, no crash)"

# Observability smoke: a traced QRD solve must produce a structurally
# valid Chrome trace (JSON parses, spans balanced per track) that the
# repo's own checker accepts, and the optimum must be unaffected by
# the attached sink.
trace=$(mktemp /tmp/eitc-trace.XXXXXX.json)
out=$("$EITC" schedule qrd --trace "$trace" --metrics) || {
  echo "smoke.sh: traced qrd schedule failed" >&2
  echo "$out" >&2
  rm -f "$trace"
  exit 1
}
case "$out" in
*"makespan=168"*) ;;
*)
  echo "smoke.sh: traced qrd solve did not report makespan=168" >&2
  echo "$out" >&2
  rm -f "$trace"
  exit 1
  ;;
esac
if ! "$EITC" trace-check "$trace"; then
  echo "smoke.sh: emitted trace failed validation" >&2
  rm -f "$trace"
  exit 1
fi
echo "smoke.sh: trace smoke OK (qrd traced, makespan 168, trace validates)"

# Trace analytics smoke: the report must parse its own trace, the
# folded flame output must be non-empty, a trace diffed against itself
# must be regression-free (exit 0), and a doctored copy with inflated
# propagator run counts must trip the gate (exit 1).
folded=$(mktemp /tmp/eitc-flame.XXXXXX.folded)
if ! "$EITC" trace-report "$trace" --utilization --flame "$folded" > /dev/null; then
  echo "smoke.sh: trace-report failed on the traced qrd run" >&2
  rm -f "$trace" "$folded"
  exit 1
fi
if ! [ -s "$folded" ]; then
  echo "smoke.sh: trace-report --flame wrote an empty folded file" >&2
  rm -f "$trace" "$folded"
  exit 1
fi
if ! "$EITC" trace-diff "$trace" "$trace" --threshold 1 > /dev/null; then
  echo "smoke.sh: self trace-diff reported a regression" >&2
  rm -f "$trace" "$folded"
  exit 1
fi
doctored=$(mktemp /tmp/eitc-doctored.XXXXXX.json)
sed 's/"runs":[0-9]*/"runs":9999999/g' "$trace" > "$doctored"
if "$EITC" trace-diff "$trace" "$doctored" --threshold 10 > /dev/null; then
  echo "smoke.sh: doctored trace-diff did not fail" >&2
  rm -f "$trace" "$folded" "$doctored"
  exit 1
fi
# One reader: a misnested copy (the search span's end renamed to its
# parent's) is a defect that trace-report names and reads past (exit
# 0), while trace-check rejects it (exit 1).
misnested=$(mktemp /tmp/eitc-misnested.XXXXXX.json)
sed 's/"name":"search","cat":"search","ph":"E"/"name":"cp-search","cat":"search","ph":"E"/' \
  "$trace" > "$misnested"
fail_mis() {
  echo "smoke.sh: $1" >&2
  rm -f "$trace" "$folded" "$doctored" "$misnested"
  exit 1
}
report=$("$EITC" trace-report "$misnested") \
  || fail_mis "trace-report failed on a misnested trace"
case "$report" in
*"(misnested)"*) ;;
*) fail_mis "trace-report did not name the misnested end" ;;
esac
"$EITC" trace-check "$misnested" > /dev/null && rc=0 || rc=$?
[ "$rc" -eq 1 ] || fail_mis "trace-check exited $rc on a misnested trace, expected 1"
rm -f "$trace" "$folded" "$doctored" "$misnested"
echo "smoke.sh: trace analytics OK (report + flame, self-diff clean, doctored diff gated, misnesting named and rejected)"

# Live metrics: a simulated QRD run with --metrics prints the machine
# timeline's gauge rows from the live summary.
out=$("$EITC" simulate qrd --metrics) || {
  echo "smoke.sh: simulate qrd --metrics failed" >&2
  echo "$out" >&2
  exit 1
}
for row in lanes.busy bank-ports.reads; do
  if ! printf '%s\n' "$out" | grep -q "^$row "; then
    echo "smoke.sh: simulate qrd --metrics printed no $row gauge row" >&2
    echo "$out" >&2
    exit 1
  fi
done
echo "smoke.sh: live metrics OK (simulate qrd --metrics: lanes.busy, bank-ports.reads)"

# Node guards: a kernel must be proven optimal within a node ceiling.
# MATMUL: the head-body-tail resource bound puts its lower bound at its
# optimum (11), so the first incumbent closes the proof in a few dozen
# nodes; the previous bound (10) needed a 12.6k-node search to prove 10
# infeasible, so a breach means the bound quietly loosened.  ARF: the
# first search phase breaks ties between equally early ops by
# critical-path tail, and proves 56 in 66 nodes; with ties by node
# order it took 114, so a breach means that order was lost.
node_guard() {
  out=$("$EITC" schedule "$1") || {
    echo "smoke.sh: $1 schedule failed" >&2
    echo "$out" >&2
    exit 1
  }
  case "$out" in
  *"$1: optimal,"*) ;;
  *)
    echo "smoke.sh: $1 was not proven optimal" >&2
    echo "$out" >&2
    exit 1
    ;;
  esac
  nodes=$(printf '%s\n' "$out" | sed -n 's/.* \([0-9][0-9]*\) nodes.*/\1/p')
  if [ -z "$nodes" ]; then
    echo "smoke.sh: $1 report line lacks a node count" >&2
    echo "$out" >&2
    exit 1
  fi
  if [ "$nodes" -gt "$2" ]; then
    echo "smoke.sh: $1 took $nodes nodes to prove optimality (ceiling $2)" >&2
    exit 1
  fi
  echo "smoke.sh: node guard OK ($1 optimal in $nodes nodes <= $2)"
}
node_guard matmul 100
node_guard arf 80

# §4.3's figures: Table 2's rows, the simulator cross-checks of every
# overlapped and modulo program (`bench dynamic`), every utilization
# row (one-shot, overlapped and modulo) and the three Table 3 kernels,
# each printed verbatim and deterministic (tens of milliseconds each).
dune build ./bench/main.exe
BENCH=_build/default/bench/main.exe
expect_rows() {
  what=$1
  out=$2
  shift 2
  for row in "$@"; do
    printf '%s\n' "$out" | grep -qF -- "$row" || {
      echo "smoke.sh: $what: missing row: $row" >&2
      printf '%s\n' "$out" >&2
      exit 1
    }
  done
}
expect_rows "bench table2" "$("$BENCH" table2)" \
  "Manual       391            32               13" \
  "Automated    427            35               13"
expect_rows "bench dynamic" "$("$BENCH" dynamic)" \
  "MATMUL   overlap M=8     160 results verified, port-clean=true" \
  "MATMUL   modulo  N=4      80 results verified, port-clean=true, completion=23 (= span+3*II: true)" \
  "ARF      overlap M=7     196 results verified, port-clean=true" \
  "ARF      modulo  N=4     112 results verified, port-clean=false, completion=97 (= span+3*II: true)" \
  "QRD      overlap M=12    744 results verified, port-clean=false" \
  "QRD      modulo  N=4     248 results verified, port-clean=false, completion=264 (= span+3*II: true)"
expect_rows "bench utilization" "$("$BENCH" utilization)" \
  "QRD      one-shot     5.9            18/169       22" \
  "QRD      overlap-12   28.1           216/427      36" \
  "QRD      modulo       55.6           15/18        3" \
  "ARF      one-shot     12.3           14/57        7" \
  "ARF      overlap-12   48.0           168/175      7" \
  "ARF      modulo       100.0          7/7          0" \
  "MATMUL   one-shot     33.3           4/12         8" \
  "MATMUL   overlap-12   49.5           48/97        49" \
  "MATMUL   modulo       100.0          4/4          0"
out=$("$EITC" modulo matmul) || {
  echo "smoke.sh: eitc modulo matmul exited non-zero" >&2
  echo "$out" >&2
  exit 1
}
expect_rows "eitc modulo matmul" "$out" "II=4, 0 reconfigs, actual II=4"
out=$("$EITC" modulo arf) || {
  echo "smoke.sh: eitc modulo arf exited non-zero" >&2
  echo "$out" >&2
  exit 1
}
expect_rows "eitc modulo arf" "$out" "II=7, 4 reconfigs, actual II=11"
out=$("$EITC" modulo qrd) || {
  echo "smoke.sh: eitc modulo qrd exited non-zero" >&2
  echo "$out" >&2
  exit 1
}
expect_rows "eitc modulo qrd" "$out" "II=18, 11 reconfigs, actual II=29"
echo "smoke.sh: §4.3 smoke OK (Table 2, 6 simulator cross-checks, 9 utilization rows, modulo matmul + arf + qrd validated)"

# Service smoke: three line-delimited JSON requests — two solvable
# kernels and one malformed XML payload — through `eitc serve`.  The
# daemon must answer every line exactly once, report the known optima,
# turn the bad payload into a typed per-request error (never a daemon
# exit), and quit cleanly on EOF.
serve_out=$(printf '%s\n' \
  '{"id":"a","kernel":"qrd"}' \
  '{"id":"b","kernel":"fir"}' \
  '{"id":"c","xml":"<graph><bogus"}' \
  | "$EITC" serve --pool 2 --queue 8) || {
  echo "smoke.sh: eitc serve exited non-zero" >&2
  echo "$serve_out" >&2
  exit 1
}
lines=$(printf '%s\n' "$serve_out" | grep -c '"id"')
if [ "$lines" -ne 3 ]; then
  echo "smoke.sh: serve answered $lines lines, expected 3" >&2
  echo "$serve_out" >&2
  exit 1
fi
for want in \
  '"id": "a", "status": "optimal"' \
  '"id": "b", "status": "optimal"' \
  '"id": "c", "status": "error"'; do
  case "$serve_out" in
  *"$want"*) ;;
  *)
    echo "smoke.sh: serve output lacks [$want]" >&2
    echo "$serve_out" >&2
    exit 1
    ;;
  esac
done
echo "smoke.sh: serve smoke OK (2 solved + 1 typed error, clean EOF shutdown)"

# Solution-cache smoke: two identical `eitc schedule --cache` runs
# through a persisted cache file.  The second run must be answered from
# the cache — reported as a hit, with zero search work — and still
# print the known optimum.
cachef=$(mktemp /tmp/eitc-cache.XXXXXX.json)
rm -f "$cachef"
out=$("$EITC" schedule qrd --cache 16 --cache-file "$cachef") || {
  echo "smoke.sh: cached qrd schedule (cold) failed" >&2
  echo "$out" >&2
  rm -f "$cachef"
  exit 1
}
case "$out" in
*"cache: miss"*) ;;
*)
  echo "smoke.sh: first cached run did not report a miss" >&2
  echo "$out" >&2
  rm -f "$cachef"
  exit 1
  ;;
esac
out=$("$EITC" schedule qrd --cache 16 --cache-file "$cachef") || {
  echo "smoke.sh: cached qrd schedule (hit) failed" >&2
  echo "$out" >&2
  rm -f "$cachef"
  exit 1
}
rm -f "$cachef"
case "$out" in
*"cache: hit"*) ;;
*)
  echo "smoke.sh: second identical run did not hit the cache" >&2
  echo "$out" >&2
  exit 1
  ;;
esac
case "$out" in
*"makespan=168"*) ;;
*)
  echo "smoke.sh: cached replay did not report makespan=168" >&2
  echo "$out" >&2
  exit 1
  ;;
esac
case "$out" in
*" 0 nodes, 0 fails, 0 props"*) ;;
*)
  echo "smoke.sh: cached replay still did search work" >&2
  echo "$out" >&2
  exit 1
  ;;
esac
echo "smoke.sh: cache smoke OK (hit on second run, 0 props, makespan 168)"

# A --cache-file that exists but is not a cache file is ignored with a
# warning and left byte-for-byte alone: the run still solves (exit 0)
# but never saves over a file it could not read.
notcache=$(mktemp /tmp/eitc-notcache.XXXXXX.txt)
orig=$(mktemp /tmp/eitc-notcache-orig.XXXXXX.txt)
printf 'notes, not a solution cache\n' > "$notcache"
cp "$notcache" "$orig"
fail_nc() {
  echo "smoke.sh: $1" >&2
  echo "$err" >&2
  rm -f "$notcache" "$orig"
  exit 1
}
err=$("$EITC" schedule qrd --cache-file "$notcache" 2>&1 > /dev/null) \
  || fail_nc "schedule with a non-cache --cache-file did not exit 0"
case "$err" in
*"ignoring cache file"*) ;;
*) fail_nc "no warning for a non-cache --cache-file" ;;
esac
cmp -s "$notcache" "$orig" || fail_nc "a non-cache --cache-file was overwritten"
rm -f "$notcache" "$orig"
echo "smoke.sh: cache-file guard OK (non-cache file warned about, exit 0, left unchanged)"

# Telemetry smoke: 8 requests plus an in-band stats probe through a
# fully instrumented `eitc serve` — live-metrics snapshots (JSONL +
# Prometheus), a structured request log, and a full trace.  The
# snapshot must carry quantiles, the Prometheus file must count all 8
# submissions, `eitc metrics-report` must render the snapshot, the
# stats probe must be answered inline, every log line must be a full
# response record, and the trace must hold every request's span and
# pass the repo's own structural checker.
mfile=$(mktemp /tmp/eitc-metrics.XXXXXX.jsonl)
tfile=$(mktemp /tmp/eitc-strace.XXXXXX.json)
lfile=$(mktemp /tmp/eitc-reqlog.XXXXXX.jsonl)
tele_out=$( { for i in 0 1 2 3 4 5 6 7; do
    printf '{"id":"t%d","kernel":"fir"}\n' "$i"
  done
  printf '{"stats":true,"id":"probe"}\n'
  } | "$EITC" serve --pool 2 --queue 16 \
        --metrics-file "$mfile" --stats-interval 100 \
        --trace "$tfile" --log "$lfile") || {
  echo "smoke.sh: instrumented eitc serve exited non-zero" >&2
  echo "$tele_out" >&2
  rm -f "$mfile" "$mfile.prom" "$tfile" "$lfile"
  exit 1
}
fail_tele() {
  echo "smoke.sh: $1" >&2
  rm -f "$mfile" "$mfile.prom" "$tfile" "$lfile"
  exit 1
}
case "$tele_out" in
*'"stats"'*) ;;
*) fail_tele "stats probe was not answered" ;;
esac
grep -q '"p99"' "$mfile" || fail_tele "metrics snapshot lacks quantiles"
grep -q '"serve.total_ms"' "$mfile" || fail_tele "metrics snapshot lacks serve.total_ms"
grep -q 'quantile=' "$mfile.prom" || fail_tele "prometheus file lacks quantile samples"
grep -q '^serve_submitted 8$' "$mfile.prom" || fail_tele "prometheus file does not count 8 submissions"
"$EITC" metrics-report "$mfile" > /dev/null || fail_tele "metrics-report rejected the snapshot"
"$EITC" trace-check "$tfile" || fail_tele "trace failed validation"
traced=$(grep -o '"request:t[0-9]*"' "$tfile" | sort -u | wc -l)
if [ "$traced" -ne 8 ]; then
  fail_tele "trace holds $traced of 8 request spans"
fi
loglines=$(grep -c '"total_ms"' "$lfile")
if [ "$loglines" -ne 8 ]; then
  fail_tele "request log has $loglines response records, expected 8"
fi
grep -q '"ts_unix"' "$lfile" || fail_tele "request log lines lack timestamps"
rm -f "$mfile" "$mfile.prom" "$tfile" "$lfile"
echo "smoke.sh: telemetry smoke OK (snapshot + prom + report, stats probe, 8/8 traced requests, 8 log records)"

# Postmortem smoke: a deterministically wedged request through a
# flight-recorder-enabled serve — the watchdog's wedge verdict must
# leave exactly one black box under --flight-dir, named for the
# request and its retention reason, and `eitc postmortem` must
# reconstruct it (exit 0) even though a ring dump is a truncated,
# mid-span suffix of the request's event stream.  A second healthy
# request must leave no dump: retention is tail-based, not blanket.
fdir=$(mktemp -d /tmp/eitc-flight.XXXXXX)
pm_out=$(printf '%s\n' \
  '{"id":"w0","kernel":"qrd","budget_ms":10000}' \
  '{"id":"ok1","kernel":"fir"}' \
  | "$EITC" serve --pool 1 --grace 150 --flight-dir "$fdir" --chaos-wedge 0) || {
  echo "smoke.sh: flight-recorder serve exited non-zero" >&2
  echo "$pm_out" >&2
  rm -rf "$fdir"
  exit 1
}
fail_pm() {
  echo "smoke.sh: $1" >&2
  echo "$pm_out" >&2
  rm -rf "$fdir"
  exit 1
}
case "$pm_out" in
*'"wedged"'*) ;;
*) fail_pm "chaos-wedged request was not answered wedged" ;;
esac
dumps=$(ls "$fdir"/flight-*.jsonl 2>/dev/null | wc -l)
if [ "$dumps" -ne 1 ]; then
  fail_pm "expected exactly 1 flight dump for the wedge, found $dumps"
fi
ls "$fdir"/flight-*-w0-wedged.jsonl > /dev/null 2>&1 \
  || fail_pm "flight dump is not named for the wedged request"
"$EITC" postmortem "$fdir" > /dev/null || fail_pm "eitc postmortem failed on the flight dir"
"$EITC" postmortem "$fdir"/flight-*-w0-wedged.jsonl > /dev/null \
  || fail_pm "eitc postmortem failed on a single dump"
if "$EITC" postmortem "$fdir/no-such-dump.jsonl" > /dev/null 2>&1; then
  fail_pm "postmortem on a missing file must exit non-zero"
fi
rm -rf "$fdir"
echo "smoke.sh: postmortem smoke OK (1 wedge black box, healthy request dropped, postmortem renders)"

# Tail-keep smoke: with --tail-keep 4, the recorder also keeps every
# 4th healthy request by admission order as a baseline slice.  Eight
# healthy FIR requests (t0..t7) must leave exactly the two sampled
# black boxes, t0 and t4, and `eitc postmortem` must render them.
tdir=$(mktemp -d /tmp/eitc-tailkeep.XXXXXX)
tk_out=$( for i in 0 1 2 3 4 5 6 7; do
    printf '{"id":"t%d","kernel":"fir"}\n' "$i"
  done | "$EITC" serve --pool 2 --queue 16 --flight-dir "$tdir" --tail-keep 4) || {
  echo "smoke.sh: tail-keep serve exited non-zero" >&2
  echo "$tk_out" >&2
  rm -rf "$tdir"
  exit 1
}
fail_tk() {
  echo "smoke.sh: $1" >&2
  ls "$tdir" >&2
  rm -rf "$tdir"
  exit 1
}
dumps=$(ls "$tdir"/flight-*.jsonl 2>/dev/null | wc -l)
if [ "$dumps" -ne 2 ]; then
  fail_tk "expected exactly 2 sampled flight dumps with --tail-keep 4, found $dumps"
fi
for id in t0 t4; do
  ls "$tdir"/flight-*-"$id"-sampled.jsonl > /dev/null 2>&1 \
    || fail_tk "no sampled flight dump for $id"
done
"$EITC" postmortem "$tdir" > /dev/null || fail_tk "eitc postmortem failed on the sampled dumps"
rm -rf "$tdir"
echo "smoke.sh: tail-keep smoke OK (t0 and t4 sampled of 8 healthy requests, postmortem renders)"

# Baseline guard: `bench profile --path F` must write its profiles to F
# (starting empty when F does not exist) and leave the committed
# BENCH_solver.json byte-for-byte alone: a throwaway profile must never
# replace the baseline `bench compare` gates against.  An F that exists
# but is not a report must make it fail and stay byte-for-byte as it was.
dune build ./bench/main.exe
ptmp=$(mktemp -d /tmp/eitc-profile.XXXXXX)
cp BENCH_solver.json "$ptmp/before.json"
fail_prof() {
  echo "smoke.sh: $1" >&2
  rm -rf "$ptmp"
  exit 1
}
_build/default/bench/main.exe profile --path "$ptmp/p.json" > /dev/null \
  || fail_prof "bench profile --path failed"
cmp -s BENCH_solver.json "$ptmp/before.json" \
  || fail_prof "bench profile --path rewrote BENCH_solver.json"
grep -q '"propagator_profiles"' "$ptmp/p.json" \
  || fail_prof "bench profile --path wrote no propagator_profiles"
printf 'notes, not a report\n' > "$ptmp/notes.txt"
cp "$ptmp/notes.txt" "$ptmp/notes.orig"
if _build/default/bench/main.exe profile --path "$ptmp/notes.txt" > /dev/null; then
  fail_prof "bench profile --path on a non-report exited 0"
fi
cmp -s "$ptmp/notes.txt" "$ptmp/notes.orig" \
  || fail_prof "bench profile --path overwrote a file that is not a report"
rm -rf "$ptmp"
echo "smoke.sh: profile --path smoke OK (profiles in the given file, baseline and non-report untouched)"

# Examples smoke: each example runs to exit 0 and prints its
# verification line (the simulator or the solver agreeing with the
# reference).  Each takes milliseconds; `mimo_pipeline` and
# `throughput_study` take about half a minute each and stay out.
dune build ./examples/quickstart.exe ./examples/custom_kernel.exe \
  ./examples/memory_exploration.exe ./examples/detection_chain.exe \
  ./examples/hand_coding.exe ./examples/streaming.exe \
  ./examples/solver_tour.exe
example() {
  name=$1
  expect=$2
  out=$(_build/default/examples/"$name".exe 2>&1) && code=0 || code=$?
  if [ "$code" -ne 0 ]; then
    echo "smoke.sh: example $name exited $code" >&2
    echo "$out" >&2
    exit 1
  fi
  if ! printf '%s\n' "$out" | grep -qF "$expect"; then
    echo "smoke.sh: example $name did not print \"$expect\"" >&2
    echo "$out" >&2
    exit 1
  fi
}
example quickstart "simulation matches the reference evaluation"
example custom_kernel "simulator agrees with the DSL evaluation"
example memory_exploration "64 slots available: length 168 cc"
example detection_chain "simulator matches reference back-substitution"
example hand_coding "...and it verifies on the simulator."
example streaming "120 results verified"
example solver_tour "job shop: makespan 9"
echo "smoke.sh: examples smoke OK (7 examples, exit 0, verification lines)"
