#!/bin/sh
# CI entry point: build everything, run the full test suite (unit +
# property + randomized differential), smoke the CLI's exit-code
# contract, certify suite machines with the independent checker (and
# prove the checker catches injected faults), stress the
# deadline/fallback path on a large generated machine, smoke the
# benchmark JSON emitters, and last check the wall gates the serve and
# parallel benches decided on their own measurements.
set -eu

cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== tests =="
dune runtest --force

echo "== CLI smoke: exit codes =="
NOVA=_build/default/bin/nova_cli.exe
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

$NOVA encode -a iexact test/cli/good.kiss2 > /dev/null
echo "  encode success: exit 0 ok"

rc=0; $NOVA encode test/cli/truncated.kiss2 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "parse error: expected exit 2, got $rc"; exit 1; }
echo "  parse error: exit 2 ok"

rc=0; $NOVA encode -a iexact --max-work 10 --no-fallback test/cli/good.kiss2 \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "budget exhausted: expected exit 3, got $rc"; exit 1; }
echo "  budget exhausted (--no-fallback): exit 3 ok"

# Same budget with the fallback ladder enabled must succeed.
$NOVA encode -a iexact --max-work 10 test/cli/good.kiss2 > /dev/null 2>/dev/null
echo "  budget exhausted + fallback: exit 0 ok"

rc=0; $NOVA report --jobs 0 lion > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 5 ] || { echo "report --jobs 0: expected exit 5, got $rc"; exit 1; }
echo "  report --jobs 0: exit 5 ok"

echo "== blif smoke: every -a spelling encodes with its own algorithm =="
# blif encodes through the same driver call as encode, so its BLIF
# declares the machine's primary inputs plus exactly the state bits
# encode reports: for kiss on dk16 (2 inputs), 10 bits, not ihybrid's 5.
for A in ihybrid igreedy iohybrid iovariant iexact kiss onehot random \
  mustang-n mustang-nt mustang-p mustang-pt; do
  $NOVA encode -a "$A" lion > /dev/null 2>&1 || { echo "encode -a $A lion: nonzero exit"; exit 1; }
  $NOVA blif -a "$A" lion > /dev/null 2>&1 || { echo "blif -a $A lion: nonzero exit"; exit 1; }
  bits=$($NOVA encode -a "$A" dk16 2>/dev/null | sed -n 's/.* encoded in \([0-9]*\) bits$/\1/p')
  inputs=$($NOVA blif -a "$A" dk16 2>/dev/null | sed -n 's/^\.inputs //p' | wc -w)
  [ "$inputs" -eq $((bits + 2)) ] \
    || { echo "blif -a $A dk16: $inputs inputs, expected 2 + $bits state bits"; exit 1; }
  [ "$A" != kiss ] || [ "$bits" -eq 10 ] \
    || { echo "encode -a kiss dk16: $bits bits, expected 10"; exit 1; }
done
echo "  12 spellings: encode and blif exit 0 on lion, blif state bits = encode bits on dk16: ok"

echo "== certify smoke: suite machines under the independent checker =="
$NOVA gen -s 12 -p 48 -i 14 -o 4 -g 7 > "$TMP/wide.kiss2"
for machine in lion dk16 sand "$TMP/wide.kiss2"; do
  $NOVA encode -a ihybrid --certify "$machine" > /dev/null
  echo "  certify $machine (ihybrid): exit 0 ok"
done
# Trace equivalence is exact at every input width: a corrupted output
# column on the 14-input machine must fail it with a witness point.
rc=0; $NOVA encode -a ihybrid --certify --inject corrupt-output "$TMP/wide.kiss2" \
  > "$TMP/wide-inject.txt" 2>/dev/null || rc=$?
[ "$rc" -eq 6 ] || { echo "14-input corrupt-output: expected exit 6, got $rc"; exit 1; }
grep -qE '^  \[FAIL\] trace-equivalence .*state [^ ]+ under input [01]{14}: ' "$TMP/wide-inject.txt" \
  || { echo "14-input corrupt-output: no trace-equivalence witness"; cat "$TMP/wide-inject.txt"; exit 1; }
echo "  14-input corrupt-output: exit 6, trace-equivalence names a state and an input: ok"

echo "== instrument smoke: --instrument dumps the registry, stderr empty without =="
CHECK_PROM=_build/default/scripts/check_prom.exe
RECORD_KEYS=_build/default/scripts/record_keys.exe
$NOVA encode --instrument dk16 > /dev/null 2> "$TMP/instrument.prom"
$CHECK_PROM "$TMP/instrument.prom" > /dev/null \
  || { echo "--instrument stderr failed check_prom"; exit 1; }
grep -q 'nova_events_total{event="logic.tautology_calls"}' "$TMP/instrument.prom" \
  || { echo "--instrument dump missing the tautology counter"; exit 1; }
grep -q 'nova_span_seconds.*span="espresso.minimize"' "$TMP/instrument.prom" \
  || { echo "--instrument dump missing the espresso.minimize section"; exit 1; }
$NOVA encode dk16 > /dev/null 2> "$TMP/plain-stderr.txt"
[ ! -s "$TMP/plain-stderr.txt" ] \
  || { echo "plain encode wrote to stderr"; cat "$TMP/plain-stderr.txt"; exit 1; }
echo "  --instrument exposition lints, kernel series present, plain stderr empty: ok"

echo "== search-identity smoke: dk16 ihybrid and iohybrid run the same embedding search =="
# The face-embedding search's candidate order, verdicts and ticks are
# its specification: a faster search must count exactly the same work.
$NOVA encode -a ihybrid dk16 --instrument > "$TMP/dk16-ihybrid.txt" 2> "$TMP/dk16-ihybrid.prom"
for pin in 'embed.work_ticks"} 190490' 'embed.verify_calls"} 190484' \
  'embed.cascade_calls"} 5753'; do
  grep -qxF "nova_events_total{event=\"$pin" "$TMP/dk16-ihybrid.prom" \
    || { echo "dk16 ihybrid search counter moved: expected $pin"; grep embed "$TMP/dk16-ihybrid.prom"; exit 1; }
done
grep -qF "35 product terms, PLA area 770" "$TMP/dk16-ihybrid.txt" \
  || { echo "dk16 ihybrid result moved"; cat "$TMP/dk16-ihybrid.txt"; exit 1; }
echo "  embed counters 190490/190484/5753 and 35 terms, area 770: ok"
# iohybrid is the other caller of the one accretion and projection: its
# input stage and its cluster stage must search exactly as before too.
$NOVA encode -a iohybrid dk16 --instrument > "$TMP/dk16-iohybrid.txt" 2> "$TMP/dk16-iohybrid.prom"
for pin in 'embed.work_ticks"} 97955' 'embed.verify_calls"} 97952' \
  'embed.cascade_calls"} 4215'; do
  grep -qxF "nova_events_total{event=\"$pin" "$TMP/dk16-iohybrid.prom" \
    || { echo "dk16 iohybrid search counter moved: expected $pin"; grep embed "$TMP/dk16-iohybrid.prom"; exit 1; }
done
grep -qF "35 product terms, PLA area 770" "$TMP/dk16-iohybrid.txt" \
  || { echo "dk16 iohybrid result moved"; cat "$TMP/dk16-iohybrid.txt"; exit 1; }
echo "  iohybrid embed counters 97955/97952/4215 and 35 terms, area 770: ok"

echo "== espresso-identity smoke: dk16 ihybrid runs the same ESPRESSO =="
# EXPAND's raises and their order are the minimizer's specification: an
# off-set or care set written down differently must make exactly the
# same decisions, and the 1-hot reference must come out the same. The
# essential primes are read off IRREDUNDANT's verdicts, not asked again.
# IRREDUNDANT asks only the cubes that meet the visited cube, and answers
# a care point set itself when one of them contains it or none meets
# it: 28 tautology calls (127 when every question took one).
for pin in 'espresso.expand_passes"} 167' 'espresso.expand_raised_bits"} 373' \
  'espresso.minimize_calls"} 3' 'logic.tautology_calls"} 28'; do
  grep -qxF "nova_events_total{event=\"$pin" "$TMP/dk16-ihybrid.prom" \
    || { echo "dk16 ihybrid espresso counter moved: expected $pin"; grep -E 'espresso|tautology_calls' "$TMP/dk16-ihybrid.prom"; exit 1; }
done
grep -qxF "(1-hot reference: 26 product terms, area 2288)" "$TMP/dk16-ihybrid.txt" \
  || { echo "dk16 1-hot reference moved"; cat "$TMP/dk16-ihybrid.txt"; exit 1; }
echo "  espresso counters 167/373/3, 28 tautology calls and 1-hot reference 26 terms, area 2288: ok"

echo "== fault-injection smoke: injected faults must exit 6 =="
for fault in duplicate-code drop-cube bogus-ic-claim; do
  rc=0; $NOVA encode -a ihybrid --certify --inject "$fault" lion \
    > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 6 ] || { echo "inject $fault: expected exit 6, got $rc"; exit 1; }
  echo "  inject $fault: exit 6 ok"
done

echo "== deadline stress: 50ms budget on a large generated machine =="
$NOVA gen -s 80 -p 400 -i 8 -o 8 > "$TMP/big.kiss2"
# Must terminate promptly (the fallback ladder catches the deadline) —
# a hang here is a pipeline bug, so hard-cap the run.
timeout 10 $NOVA encode -a iexact --budget-ms 50 "$TMP/big.kiss2" > /dev/null 2>/dev/null
echo "  deadline run terminated via fallback: exit 0 ok"

echo "== parallel smoke: --jobs 2 must match --jobs 1 bit for bit =="
$NOVA report --jobs 1 --no-cache lion dk15 bbara > "$TMP/report-j1.txt" 2>/dev/null
$NOVA report --jobs 2 --no-cache lion dk15 bbara > "$TMP/report-j2.txt" 2>/dev/null
diff "$TMP/report-j1.txt" "$TMP/report-j2.txt" \
  || { echo "parallel report differs from sequential"; exit 1; }
echo "  report --jobs 2 bit-identical to --jobs 1: ok"

echo "== shared-minimization pin: one portfolio, one symbolic minimization =="
# A portfolio run minimizes each machine's symbolic cover once and runs
# ESPRESSO once per distinct encoding its tasks may share, so dk16's
# seven tasks make 18 minimizer calls (22 when every task computed its
# own). The count repeats under -j 2 only if a second domain waits on
# the first one's once-cell instead of computing it again. The rows
# themselves must not move: stdout is pinned byte for byte.
for j in 1 2; do
  $NOVA report -j "$j" --no-cache --instrument dk16 > "$TMP/report-dk16-j$j.txt" \
    2> "$TMP/report-dk16-j$j.prom"
  grep -qxF 'nova_events_total{event="espresso.minimize_calls"} 18' "$TMP/report-dk16-j$j.prom" \
    || { echo "dk16 report -j $j: espresso.minimize_calls moved from 18"; \
         grep minimize_calls "$TMP/report-dk16-j$j.prom"; exit 1; }
  diff bench/report_dk16.expected "$TMP/report-dk16-j$j.txt" \
    || { echo "dk16 report -j $j: rows moved"; exit 1; }
done
echo "  dk16 report: 18 minimizer calls under -j 1 and -j 2, rows unchanged: ok"

echo "== suite report pin: every portfolio row of the non-heavy suite =="
# The 32 non-heavy machines x 7 algorithms, byte for byte: a change to
# the encoders, the driver or the executor that is meant to keep their
# results must keep this stdout. To regenerate after an intended change:
#   _build/default/bin/nova_cli.exe report -j 2 --no-cache > bench/report_suite.expected
$NOVA report -j 2 --no-cache > "$TMP/report-suite.txt" 2>/dev/null
diff bench/report_suite.expected "$TMP/report-suite.txt" \
  || { echo "suite report rows moved"; exit 1; }
echo "  32 machines x 7 algorithms: rows unchanged: ok"

echo "== cache smoke: warm run must hit and match the cold run =="
$NOVA report --cache "$TMP/cache" lion dk15 > "$TMP/report-cold.txt" 2>/dev/null
$NOVA report --cache "$TMP/cache" lion dk15 > "$TMP/report-warm.txt" 2> "$TMP/warm-stderr.txt"
diff "$TMP/report-cold.txt" "$TMP/report-warm.txt" \
  || { echo "warm-cache report differs from cold"; exit 1; }
grep -q "cache: [1-9][0-9]* hits" "$TMP/warm-stderr.txt" \
  || { echo "warm run produced no cache hits"; cat "$TMP/warm-stderr.txt"; exit 1; }
echo "  cache round-trip: warm hits, identical report: ok"

echo "== cache smoke: a corrupt entry is rejected and recomputed =="
for entry in "$TMP/cache"/*.nova-cache; do
  printf 'garbage\n' > "$entry"
  break
done
$NOVA report --cache "$TMP/cache" lion dk15 > "$TMP/report-corrupt.txt" 2> "$TMP/corrupt-stderr.txt" \
  || { echo "corrupt cache entry crashed the report"; exit 1; }
diff "$TMP/report-cold.txt" "$TMP/report-corrupt.txt" \
  || { echo "report after cache corruption differs"; exit 1; }
grep -q "1 rejected" "$TMP/corrupt-stderr.txt" \
  || { echo "corrupt entry was not rejected"; cat "$TMP/corrupt-stderr.txt"; exit 1; }
echo "  corrupt entry rejected, recomputed, exit 0: ok"

echo "== chaos smoke: absorbed schedule must be invisible on stdout =="
# Faults at every layer, few enough that retries absorb them all: exit 0
# and stdout byte-identical to the fault-free report above.
$NOVA report --no-cache --chaos rung:2,pool:1 --chaos-seed 7 lion dk15 \
  > "$TMP/report-chaos.txt" 2>/dev/null \
  || { echo "absorbed chaos schedule crashed the report"; exit 1; }
diff "$TMP/report-cold.txt" "$TMP/report-chaos.txt" \
  || { echo "absorbed chaos schedule perturbed stdout"; exit 1; }
echo "  absorbed faults: exit 0, stdout byte-identical: ok"

echo "== chaos smoke: overwhelming schedule must fail typed =="
# More rung faults than the retry budget: the report must exit with the
# Job_crashed code (7), not die on an uncaught exception (above 125).
rc=0; $NOVA report --no-cache --chaos rung:60 --chaos-seed 1 lion \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 7 ] || { echo "overwhelming chaos: expected exit 7, got $rc"; exit 1; }
echo "  overwhelming faults: typed Job_crashed, exit 7: ok"

echo "== cache fsck smoke: truncated entry swept, sweep idempotent =="
for entry in "$TMP/cache"/*.nova-cache; do
  head -c 20 "$entry" > "$entry.trunc" && mv "$entry.trunc" "$entry"
  break
done
touch "$TMP/cache/deadbeef.nova-cache.tmp.1.0"
$NOVA cache fsck "$TMP/cache" > "$TMP/fsck.txt" \
  || { echo "cache fsck failed"; exit 1; }
grep -q "1 broken removed, 1 stale tmp removed" "$TMP/fsck.txt" \
  || { echo "fsck did not sweep the junk"; cat "$TMP/fsck.txt"; exit 1; }
$NOVA cache fsck "$TMP/cache" | grep -q "0 broken removed, 0 stale tmp removed" \
  || { echo "fsck is not idempotent"; exit 1; }
echo "  fsck swept a truncated entry and a stale tmp, then ran clean: ok"

echo "== trace smoke: traced stdout identical, trace validates =="
VALIDATE=_build/default/scripts/validate_trace.exe
$NOVA report --jobs 2 --no-cache lion dk15 > "$TMP/report-untraced.txt" 2>/dev/null
$NOVA report --jobs 2 --no-cache lion dk15 --trace "$TMP/trace.json" \
  > "$TMP/report-traced.txt" 2>/dev/null
diff "$TMP/report-untraced.txt" "$TMP/report-traced.txt" \
  || { echo "tracing perturbed the report stdout"; exit 1; }
$VALIDATE "$TMP/trace.json" \
  || { echo "Chrome trace failed validation"; exit 1; }
$NOVA report --jobs 2 --no-cache lion dk15 --trace "$TMP/trace.jsonl" \
  > /dev/null 2>/dev/null
$VALIDATE "$TMP/trace.jsonl" \
  || { echo "JSONL trace failed validation"; exit 1; }
echo "  traced report bit-identical, both export formats validate: ok"

echo "== bench-diff smoke: the committed parallel artifact self-diffs clean =="
# Injected regressions are tier-1 rules over the fixtures in test/cli.
$NOVA bench-diff BENCH_parallel.json BENCH_parallel.json > /dev/null \
  || { echo "self bench-diff reported a regression"; exit 1; }
echo "  bench-diff: self-diff exit 0: ok"

echo "== scaling bench smoke: quick grid, valid artifact, clean self-diff =="
# The quick grid (states 8-64, cheap algorithms, 3 reps) must produce a
# valid nova-bench-scaling/v1 artifact that self-diffs clean.
$NOVA bench scaling --quick --out "$TMP/BENCH_scaling.json" > /dev/null 2>&1
grep -q '"schema":"nova-bench-scaling/v1"' "$TMP/BENCH_scaling.json" \
  || { echo "scaling artifact missing schema"; exit 1; }
$NOVA bench-diff "$TMP/BENCH_scaling.json" "$TMP/BENCH_scaling.json" > /dev/null \
  || { echo "scaling self-diff reported a regression"; exit 1; }
echo "  scaling: quick artifact valid, self-diff exit 0: ok"

echo "== serve smoke: daemon round-trip, determinism, clean shutdown =="
SOCK="$TMP/serve.sock"
ACCESS_LOG="$TMP/access.jsonl"
FLIGHT="$TMP/flight.json"
# One seeded crash among the first two requests (the serve chaos site):
# the smoke proves the killed request is recoverable from the flight
# recorder while every later request is untouched.
$NOVA serve --socket "$SOCK" --cache "$TMP/serve-cache" --quiet \
  --access-log "$ACCESS_LOG" --flight-record "$FLIGHT" \
  --chaos serve:1 --chaos-seed 11 &
SERVE_PID=$!
up=0
for _ in $(seq 1 100); do
  if $NOVA client ping --socket "$SOCK" > /dev/null 2>&1; then up=1; break; fi
  sleep 0.05
done
[ "$up" -eq 1 ] || { echo "serve daemon did not come up"; exit 1; }
# Exhaust the chaos window (1 fault in the first 2 serve invocations):
# whichever ping drew the injected crash, everything after this burner
# is deterministic.
$NOVA client ping --socket "$SOCK" > /dev/null 2>&1 || true
$NOVA client ping --socket "$SOCK" | grep -q pong \
  || { echo "ping did not pong"; exit 1; }
# The determinism pin: a served payload is the one-shot stdout, byte
# for byte — cold (computed), then warm (certified cache hit).
$NOVA client encode -a ihybrid dk16 --socket "$SOCK" > "$TMP/served-cold.txt"
$NOVA encode -a ihybrid dk16 > "$TMP/encode-oneshot.txt" 2>/dev/null
diff "$TMP/encode-oneshot.txt" "$TMP/served-cold.txt" \
  || { echo "served payload differs from one-shot stdout"; exit 1; }
$NOVA client encode -a ihybrid dk16 --socket "$SOCK" > "$TMP/served-warm.txt"
diff "$TMP/encode-oneshot.txt" "$TMP/served-warm.txt" \
  || { echo "warm served payload differs from one-shot stdout"; exit 1; }
# A concurrent identical pair on a fresh key: identical bytes whether
# the second request coalesced onto the first or hit the fresh cache
# entry (the alcotest suite pins the coalescing counters).
$NOVA client encode -a igreedy dk16 --socket "$SOCK" > "$TMP/served-co1.txt" &
CO_PID=$!
$NOVA client encode -a igreedy dk16 --socket "$SOCK" > "$TMP/served-co2.txt"
wait $CO_PID || { echo "concurrent client exited nonzero"; exit 1; }
diff "$TMP/served-co1.txt" "$TMP/served-co2.txt" \
  || { echo "concurrent identical requests served different bytes"; exit 1; }
# Its 1-hot reference line came from the memo the ihybrid requests
# filled: still the one-shot bytes.
$NOVA encode -a igreedy dk16 > "$TMP/encode-oneshot-igreedy.txt" 2>/dev/null
diff "$TMP/encode-oneshot-igreedy.txt" "$TMP/served-co1.txt" \
  || { echo "served igreedy payload differs from one-shot stdout"; exit 1; }
# A bad request answers typed (exit 5 through the client) and leaves
# the daemon fully alive.
rc=0; $NOVA client encode -a ihybrid no-such-machine --socket "$SOCK" \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 5 ] || { echo "bad request: expected exit 5, got $rc"; exit 1; }
echo "== serve observability: metrics, watch, access log, flight recorder =="
# The Prometheus exposition must pass the standalone linter, and the
# requests above must have produced per-tier latency quantiles.
$NOVA client metrics --socket "$SOCK" > "$TMP/metrics.prom"
$CHECK_PROM "$TMP/metrics.prom" > /dev/null \
  || { echo "exposition failed check_prom"; exit 1; }
for q in 0.5 0.99; do
  for tier in computed cached; do
    grep -q "nova_serve_request_seconds{tier=\"$tier\",verb=\"encode\",quantile=\"$q\"}" \
      "$TMP/metrics.prom" \
      || { echo "missing p$q for the $tier tier"; exit 1; }
  done
done
grep -q 'nova_serve_requests_total{verb="ping"}' "$TMP/metrics.prom" \
  || { echo "missing per-verb request counter"; exit 1; }
grep -q 'nova_span_seconds.*span="pipeline.rung.ihybrid"' "$TMP/metrics.prom" \
  || { echo "missing the pipeline.rung.ihybrid section"; exit 1; }
# The warm ihybrid and the igreedy dk16 requests took their 1-hot
# reference from the memo instead of a fresh ESPRESSO run.
grep -Eq '^nova_serve_onehot_total\{source="memo"\} [1-9]' "$TMP/metrics.prom" \
  || { echo "warm dk16 requests never read the 1-hot reference memo"; exit 1; }
echo "  exposition lints, per-tier p50/p99, rung sections and memo reads present: ok"
# The minimal top: two polls, counters with deltas and quantiles.
$NOVA client watch --socket "$SOCK" --interval 100 -n 2 > "$TMP/watch.txt" \
  || { echo "client watch failed"; exit 1; }
grep -q "tick 2" "$TMP/watch.txt" || { echo "watch did not poll twice"; exit 1; }
grep -q "nova_serve_requests_total" "$TMP/watch.txt" \
  || { echo "watch shows no counters"; exit 1; }
grep -q "p99=" "$TMP/watch.txt" || { echo "watch shows no quantiles"; exit 1; }
echo "  client watch polls and renders: ok"
# The chaos-killed request is recoverable from the flight recorder.
$NOVA client flightrec --socket "$SOCK" > "$TMP/flightrec.json"
grep -q '"schema":"nova-flightrec/v1"' "$TMP/flightrec.json" \
  || { echo "flightrec missing schema"; exit 1; }
grep -q '"code":7' "$TMP/flightrec.json" \
  || { echo "chaos-killed request not in the flight recorder"; exit 1; }
echo "  chaos-killed request recoverable via flightrec: ok"
# stats: legacy payload intact, metrics and quarantine keys embedded.
$NOVA client stats --socket "$SOCK" > "$TMP/stats.txt"
grep -q "serve stats:" "$TMP/stats.txt" || { echo "stats verb failed"; exit 1; }
requests=$(sed -n 's/serve stats: \([0-9]*\) requests.*/\1/p' "$TMP/stats.txt")
$NOVA client shutdown --socket "$SOCK" | grep -q "shutting down" \
  || { echo "shutdown verb failed"; exit 1; }
wait $SERVE_PID || { echo "daemon exited nonzero"; exit 1; }
[ ! -e "$SOCK" ] || { echo "socket file not removed at shutdown"; exit 1; }
# Access log 1:1: every request line answered is one JSONL line — the
# stats counter, plus the shutdown request that followed it.
logged=$(wc -l < "$ACCESS_LOG")
[ "$logged" -eq "$((requests + 1))" ] \
  || { echo "access log has $logged lines for $((requests + 1)) requests"; exit 1; }
grep -q '"verb":"encode"' "$ACCESS_LOG" \
  || { echo "access log missing the encode requests"; exit 1; }
# The shutdown dump persists the crash evidence to disk.
grep -q '"reason":"shutdown"' "$FLIGHT" \
  || { echo "flight-record artifact missing shutdown dump"; exit 1; }
grep -q '"code":7' "$FLIGHT" \
  || { echo "crash evidence missing from the shutdown dump"; exit 1; }
# One request record, two sinks: every access-log line and every entry
# of the shutdown dump carry the same keys, the request id (seq) and
# the budget spend included.
keysets=$($RECORD_KEYS "$ACCESS_LOG" "$FLIGHT" | sort -u)
[ "$(printf '%s\n' "$keysets" | wc -l)" -eq 1 ] \
  || { echo "access log and flight dump records differ in keys:"; echo "$keysets"; exit 1; }
for k in seq spent; do
  case ",$keysets," in
    *",$k,"*) ;;
    *) echo "request records lack \"$k\": $keysets"; exit 1 ;;
  esac
done
echo "  access log 1:1 ($logged lines), shutdown flight dump has the crash: ok"
echo "  access-log lines and flight entries share one key set, seq and spent included: ok"
echo "  ping, cold/warm/pair determinism, typed error, clean shutdown: ok"

echo "== serve bench smoke: bad machine refused typed, private files removed =="
# The bench keeps its sockets and cache in a private TMPDIR directory.
mkdir "$TMP/bt"
rc=0; TMPDIR="$TMP/bt" $NOVA bench serve -m no-such-machine > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 5 ] || { echo "bench serve bad machine: expected exit 5, got $rc"; exit 1; }
[ -z "$(ls -A "$TMP/bt")" ] || { echo "bench serve left files behind"; ls -A "$TMP/bt"; exit 1; }
echo "  unknown machine: exit 5, nothing left in TMPDIR: ok"

echo "== serve bench: tier artifact valid, wall gates recorded =="
# The artifact's "gates" are checked in the last step (wall gates).
TMPDIR="$TMP/bt" $NOVA bench serve -o "$TMP/BENCH_serve.json" > /dev/null 2>&1
[ -z "$(ls -A "$TMP/bt")" ] || { echo "bench serve left files behind"; ls -A "$TMP/bt"; exit 1; }
grep -q '"schema":"nova-bench-serve/v1"' "$TMP/BENCH_serve.json" \
  || { echo "serve artifact missing schema"; exit 1; }
grep -q '"warm_origin":"cached"' "$TMP/BENCH_serve.json" \
  || { echo "warm tier missed the cache"; exit 1; }
$NOVA bench-diff BENCH_serve.json BENCH_serve.json > /dev/null \
  || { echo "serve self-diff reported a regression"; exit 1; }
echo "  nova-bench-serve/v1 valid, self-diff clean: ok"

echo "== paper tables: quick run matches the expected tables =="
# bench/main.exe prints the paper's Tables I-VI, the two area-ratio
# figures and the ablations; every number but a wall time is
# deterministic. Table VI's time(s) column and the work-budget
# ablation's seconds columns are masked on both sides. Tables VII and
# X are left out for their cost (53 s and 37 s quick). To regenerate
# after an intended change, pipe the same run through mask_times into
# bench/tables_quick.expected.
mask_times() {
  awk '/^== /{s=$0} s~/Table VI:|semiexact work budget/{gsub(/[0-9]+\.[0-9]+/,"-")} {print}'
}
_build/default/bench/main.exe --quick table1 table2 table3 table4 table5 \
  table6 fig8 fig9 ablations | mask_times > "$TMP/tables-quick.txt"
diff bench/tables_quick.expected "$TMP/tables-quick.txt" \
  || { echo "paper tables moved"; exit 1; }
echo "  Tables I-VI, figures VIII-IX and ablations unchanged: ok"

echo "== bench smoke (quick parallel executor) =="
# The artifact's "gates" are checked in the last step (wall gates).
$NOVA bench parallel --quick --jobs 2 -o "$TMP/BENCH_parallel.json"

echo "== bench smoke (quick espresso kernels) =="
$NOVA bench espresso --quick -o "$TMP/BENCH_espresso.json"

echo "== bench smoke (quick pipeline) =="
$NOVA bench pipeline --quick -o "$TMP/BENCH_pipeline.json"

echo "== certification bench: every row certifies =="
# A false "ok" in the artifact is a correctness regression, not a slow
# run, and an "error" row is a report that never reached the checker.
$NOVA bench check --quick -o "$TMP/BENCH_check.json"
if grep -qF '"ok":false' "$TMP/BENCH_check.json" || grep -qF '"error":' "$TMP/BENCH_check.json"; then
  echo "certification bench: a row failed or never certified"; exit 1
fi
echo "  every quick certification row ok: ok"

echo "== wall gates: the serve and parallel benches' own verdicts =="
# Each artifact's "gates" were decided where they were measured, by
# bench-diff's wall rule: a value fails when it is over its limit by more
# than its slack and by more than 5 ms. The fast serve tiers' limit is
# cold/5 at 25 % slack: at least 4x faster than cold when cold >= 0.1 s,
# less below that. Checked last, so a wall flake hides no other step.
rc=0
for gates in "BENCH_serve.json 3" "BENCH_parallel.json 2"; do
  set -- $gates
  [ "$(grep -o '"gate":' "$TMP/$1" | wc -l)" -eq "$2" ] || { echo "$1: not $2 gates"; exit 1; }
  failed=$(grep -o '{"gate":[^}]*"pass":false}' "$TMP/$1" || true)
  [ -z "$failed" ] || { echo "$1: wall gate failed: $failed"; rc=1; }
done
[ "$rc" -eq 0 ] || exit 1
echo "  3 serve and 2 parallel wall gates pass: ok"

echo "CI OK"
