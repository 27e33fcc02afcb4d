#!/bin/sh
# Tier-1 gate: a warning-free build of lib/, bench/, bin/, test/ and
# examples/ (perfbench/ is not gated), the 23 test suites, test_perf's
# golden group alone (a digest that passes only after earlier tests of
# the suite warmed the domain-local kernel-path memo fails here), its
# alloc group alone (a zero-word or word-budget pin that passes only
# because an earlier test warmed a buffer fails here), a
# benchmark smoke run, a self-tracing smoke test (Chrome + Jaeger exports
# re-parsed via Jsonx, and a Jaeger file whose span id needs all 64 bits
# refused with exit 1 instead of an uncaught exception), two CPU-stack
# profile smokes (a redis clone, and the original social_network, whose
# stacks must name all 22 of its tiers),
# a synth scaling smoke (100-tier generated graph cloned + validated under
# a wall budget and a DES event-queue peak limit), the validation-gate
# smokes — one memcached clone through the chaos (fault injection +
# resilience counters), timeline (windowed telemetry + transient-fidelity
# scorecard + OpenMetrics export, whose surge windows must hold a non-zero
# shed sample and a replica count above 1) and surge (flash crowd on top
# of kill-mid-tier, autoscaling and admission control fired on both sides)
# gates, one redis clone through the critpath gate (critical-path
# divergence + Jaeger round-trip), a check that an unknown gate is
# refused, and a check that --jaeger with no gate that records request
# traces exits 2 and writes nothing — the bench usage errors (an unknown
# experiment exits 2 naming every experiment, a value flag in last
# position exits 2), and the fidelity regression gate
# (scorecards diffed against the committed baseline, plus proof that the
# gate rejects a perturbed baseline, fails a document sharing no metric
# with the baseline, and refuses a truncated document with exit 2 instead
# of crashing).
# Usage: bin/ci.sh   (from the repo root; DITTO_DOMAINS caps the pool)
set -eu

cd "$(dirname "$0")/.."

# All scratch files live in one tmpdir removed on any exit, so a failing
# step cannot leave stray trace/profile files behind.
tmpdir=$(mktemp -d /tmp/ditto_ci.XXXXXX)
trap 'rm -rf "$tmpdir"' EXIT INT TERM

echo "== dune build =="
build_log="$tmpdir/build.log"
build_rc=0
dune build >"$build_log" 2>&1 || build_rc=$?
cat "$build_log"
# Every library under lib/, plus bench/, bin/, test/ and examples/, must
# build warning-clean. Dune names the file on a `File "..."` line and
# gives the warning a few lines later, so each warning is charged to the
# last file named.
if awk '/^File "/ { file = $2 }
        tolower($0) ~ /warning/ && file ~ /^"(lib|bench|bin|test|examples)\// { found = 1 }
        END { exit !found }' "$build_log"; then
  echo "ci: FAIL — build warnings in lib/, bench/, bin/, test/ or examples/" >&2
  exit 1
fi
if [ "$build_rc" -ne 0 ]; then
  echo "ci: FAIL — dune build failed" >&2
  exit 1
fi

echo "== dune runtest =="
dune runtest

echo "== golden digests alone (test_perf golden group) =="
dune exec test/test_perf.exe -- test golden

echo "== allocation pins alone (test_perf alloc group) =="
dune exec test/test_perf.exe -- test alloc

echo "== bench smoke (micro kernels) =="
dune exec bench/main.exe -- micro

echo "== trace smoke (ditto_cli --trace, re-parsed with Jsonx) =="
trace_file="$tmpdir/trace.json"
dune exec bin/ditto_cli.exe -- run redis --qps 2000 --trace "$trace_file"
dune exec bin/ditto_cli.exe -- inspect-trace "$trace_file"
dune exec bin/ditto_cli.exe -- inspect-trace "$trace_file.jaeger.json"
rm -f "$trace_file" "$trace_file.jaeger.json"
# A span id past 63 bits (half of real Jaeger ids) is bad input: exit 1
# with the usual message, not an uncaught exception (exit 125).
wide_id="$tmpdir/wide_id.jaeger.json"
wide_log="$tmpdir/wide_id.log"
echo '{"data": [{"traceID": "1", "spans": [{"traceID": "1", "spanID": "a1b2c3d4e5f60718", "operationName": "front"}]}]}' >"$wide_id"
wide_rc=0
dune exec bin/ditto_cli.exe -- inspect-trace "$wide_id" >"$wide_log" 2>&1 || wide_rc=$?
cat "$wide_log"
if [ "$wide_rc" -ne 1 ] || ! grep -q "not a Chrome or Jaeger trace" "$wide_log"; then
  echo "ci: FAIL — inspect-trace on a 64-bit span id exited $wide_rc, expected 1" >&2
  exit 1
fi

echo "== profile smoke (collapsed stacks reconcile with measured CPU) =="
# `profile` exits non-zero itself if the attributed weights diverge >1%
# from the measured on-CPU time.
dune exec bin/ditto_cli.exe -- profile redis --out "$tmpdir/redis.folded" --top 5
test -s "$tmpdir/redis.folded"

echo "== multi-tier profile smoke (social_network: one stack table per tier) =="
# Each tier keeps its own table and the file concatenates them, so every
# one of social_network's 22 tiers must root some stack.
sn_folded="$tmpdir/social_network.folded"
dune exec bin/ditto_cli.exe -- profile social_network --original --out "$sn_folded" --top 5
sn_tiers=$(cut -d';' -f1 "$sn_folded" | sort -u | wc -l)
if [ "$sn_tiers" -ne 22 ]; then
  echo "ci: FAIL — social_network stacks name $sn_tiers tier(s), expected 22" >&2
  exit 1
fi

echo "== synth scaling smoke (100-tier generated graph, clone + validate) =="
# A seeded 100-tier production-shaped graph must round-trip through Jaeger
# (generate -> export -> recover DAG -> shape check), then clone and
# validate end-to-end inside a wall budget. The command prints the
# greppable SYNTH-SMOKE-OK line and exits non-zero if the recovered DAG
# does not match the generator's ground truth.
synth_log="$tmpdir/synth.log"
synth_start=$(date +%s)
dune exec bin/ditto_cli.exe -- synth synth-100 --no-tune | tee "$synth_log"
synth_wall=$(( $(date +%s) - synth_start ))
if ! grep -q "SYNTH-SMOKE-OK" "$synth_log"; then
  echo "ci: FAIL — synth smoke did not reach SYNTH-SMOKE-OK" >&2
  exit 1
fi
if [ "$synth_wall" -gt 240 ]; then
  echo "ci: FAIL — synth smoke took ${synth_wall}s (budget 240s)" >&2
  exit 1
fi
# The DES queue holds only live events (beaten timeouts are cancelled, not
# left queued until their deadline), so its high-water mark follows the
# simulated concurrency: about 200 here. A leak of dead timers shows up as
# a peak in the thousands.
synth_peak=$(awk -F': ' '/^peak heap events:/ { print $2 }' "$synth_log")
if [ -z "$synth_peak" ] || [ "$synth_peak" -gt 500 ]; then
  echo "ci: FAIL — synth smoke peak heap events '${synth_peak}' (limit 500)" >&2
  exit 1
fi

echo "== validation gate smokes (memcached: chaos + timeline + surge, one clone) =="
# One memcached clone, then three gates on it under kill-mid-tier:
# - chaos: the crash plan must exercise the resilience machinery — the
#   post-restart backlog sheds requests and the client retry budget is
#   spent, so both counters in the greppable totals line are non-zero;
# - timeline: the greppable TIMELINE-SMOKE-OK line with a strictly
#   positive reconvergence time (a fault fired, so by construction
#   reconvergence is at least the remainder of the fault window), and a
#   complete OpenMetrics export (ends with # EOF) whose surge windows
#   hold the serving path's events: a non-zero shed sample and a replica
#   count above 1;
# - surge: the flash crowd on top of the crash must exercise the
#   overload machinery on both sides — at least one scale-out event, a
#   non-zero number of shed requests, and a strictly positive
#   reconvergence time — with the greppable SURGE-SMOKE-OK line.
# The command itself must exit cleanly.
gates_log="$tmpdir/gates.log"
om_file="$tmpdir/gates.om"
dune exec bin/ditto_cli.exe -- validate memcached --gates chaos,timeline,surge \
  --plan kill-mid-tier --no-tune --openmetrics "$om_file" | tee "$gates_log"
awk '
  /^chaos-totals:/ {
    seen = 1
    shed = retries = -1
    for (i = 1; i <= NF; i++) {
      if ($i ~ /^shed=/)    { sub(/^shed=/, "", $i);    shed = $i + 0 }
      if ($i ~ /^retries=/) { sub(/^retries=/, "", $i); retries = $i + 0 }
    }
    if (shed <= 0 || retries <= 0) {
      printf "ci: FAIL — chaos counters did not fire (shed=%d retries=%d)\n", shed, retries > "/dev/stderr"
      exit 1
    }
  }
  END { if (!seen) { print "ci: FAIL — no chaos-totals line" > "/dev/stderr"; exit 1 } }
' "$gates_log"
timeline_line=$(grep "TIMELINE-SMOKE-OK" "$gates_log" || true)
if [ -z "$timeline_line" ]; then
  echo "ci: FAIL — timeline smoke did not reach TIMELINE-SMOKE-OK" >&2
  exit 1
fi
if ! echo "$timeline_line" | grep -Eq 'reconverge_ms=[1-9][0-9]*'; then
  echo "ci: FAIL — reconvergence time not strictly positive under a fault plan" >&2
  exit 1
fi
if ! grep -q '^# EOF' "$om_file"; then
  echo "ci: FAIL — OpenMetrics export incomplete (no # EOF terminator)" >&2
  exit 1
fi
# The gate keys can hold while the windows miss events: the surge
# windows must show shed requests and a scale-out.
if ! awk '/^ditto_faults\{/ && /gate="surge"/ && /kind="shed"/ && $2 > 0 { found = 1 }
          END { exit !found }' "$om_file"; then
  echo "ci: FAIL — OpenMetrics surge windows hold no shed request" >&2
  exit 1
fi
if ! awk '/^ditto_replicas\{/ && /gate="surge"/ && $2 > 1 { found = 1 }
          END { exit !found }' "$om_file"; then
  echo "ci: FAIL — OpenMetrics surge windows hold no replica count above 1" >&2
  exit 1
fi
surge_line=$(grep "SURGE-SMOKE-OK" "$gates_log" || true)
if [ -z "$surge_line" ]; then
  echo "ci: FAIL — surge smoke did not reach SURGE-SMOKE-OK" >&2
  exit 1
fi
if ! echo "$surge_line" | grep -Eq 'scale_out_events=[1-9]'; then
  echo "ci: FAIL — autoscaler never scaled out under the flash crowd" >&2
  exit 1
fi
if ! echo "$surge_line" | grep -Eq 'shed_total=[1-9]'; then
  echo "ci: FAIL — admission control shed nothing under the flash crowd" >&2
  exit 1
fi
if ! echo "$surge_line" | grep -Eq 'reconverge_ms=[1-9][0-9]*'; then
  echo "ci: FAIL — reconvergence time not strictly positive under the surge" >&2
  exit 1
fi

echo "== critpath gate smoke (critical-path divergence + Jaeger round-trip) =="
# Request-level tracing on redis: the command must print a top divergence
# row (CRITPATH worst=...) and the greppable CRITPATH-SMOKE-OK line, and
# the Jaeger export of the sampled traces must re-ingest cleanly through
# inspect-trace (non-empty roots report, client entry tier in the DAG).
critpath_log="$tmpdir/critpath.log"
critpath_jaeger="$tmpdir/critpath.jaeger.json"
dune exec bin/ditto_cli.exe -- validate redis --gates critpath --no-tune --jaeger "$critpath_jaeger" | tee "$critpath_log"
if ! grep -q "CRITPATH-SMOKE-OK" "$critpath_log"; then
  echo "ci: FAIL — critpath smoke did not reach CRITPATH-SMOKE-OK" >&2
  exit 1
fi
if ! grep -Eq 'CRITPATH worst=[^ ]+/[^ ]+ err_pp=' "$critpath_log"; then
  echo "ci: FAIL — critpath smoke printed no top divergence row" >&2
  exit 1
fi
inspect_log="$tmpdir/critpath.inspect.log"
dune exec bin/ditto_cli.exe -- inspect-trace "$critpath_jaeger" | tee "$inspect_log"
if ! grep -Eq '[1-9][0-9]* root\(s\)' "$inspect_log"; then
  echo "ci: FAIL — Jaeger export re-ingest found no trace roots" >&2
  exit 1
fi
if ! grep -q 'client' "$inspect_log"; then
  echo "ci: FAIL — Jaeger export re-ingest lost the client entry tier" >&2
  exit 1
fi

echo "== unknown gate refused (exit 2, known gates named) =="
bogus_log="$tmpdir/bogus.log"
bogus_rc=0
dune exec bin/ditto_cli.exe -- validate redis --gates bogus --no-tune >"$bogus_log" 2>&1 || bogus_rc=$?
cat "$bogus_log"
if [ "$bogus_rc" -ne 2 ]; then
  echo "ci: FAIL — --gates bogus exited $bogus_rc, expected 2" >&2
  exit 1
fi
for g in chaos timeline critpath surge; do
  if ! grep -q "$g" "$bogus_log"; then
    echo "ci: FAIL — --gates bogus did not name the known gate $g" >&2
    exit 1
  fi
done

echo "== export without a recording gate refused (exit 2, nothing written) =="
# The chaos gate records no request trace, so --jaeger has nothing to
# write: validate must say so before cloning, not run and exit 0.
refused_jaeger="$tmpdir/refused.jaeger.json"
refused_log="$tmpdir/refused.log"
refused_rc=0
dune exec bin/ditto_cli.exe -- validate redis --gates chaos --no-tune --jaeger "$refused_jaeger" \
  >"$refused_log" 2>&1 || refused_rc=$?
cat "$refused_log"
if [ "$refused_rc" -ne 2 ]; then
  echo "ci: FAIL — --gates chaos --jaeger exited $refused_rc, expected 2" >&2
  exit 1
fi
if [ -e "$refused_jaeger" ]; then
  echo "ci: FAIL — --gates chaos --jaeger wrote $refused_jaeger" >&2
  exit 1
fi

echo "== bench usage errors (exit 2 before cloning anything) =="
# An unknown experiment must be refused with the full list of experiment
# names, and a value flag with no value must be refused too.
usage_log="$tmpdir/usage.log"
usage_rc=0
dune exec bench/main.exe -- nosuch >"$usage_log" 2>&1 || usage_rc=$?
cat "$usage_log"
if [ "$usage_rc" -ne 2 ]; then
  echo "ci: FAIL — bench nosuch exited $usage_rc, expected 2" >&2
  exit 1
fi
for e in table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 errors ablation scorecards micro \
    chaos timeline critpath surge synth100 synth500 synth1000; do
  if ! grep -q " $e[,;]" "$usage_log"; then
    echo "ci: FAIL — bench nosuch did not name the experiment $e" >&2
    exit 1
  fi
done
usage_rc=0
dune exec bench/main.exe -- table1 --json >"$usage_log" 2>&1 || usage_rc=$?
cat "$usage_log"
if [ "$usage_rc" -ne 2 ] || ! grep -q "requires an argument" "$usage_log"; then
  echo "ci: FAIL — bench table1 --json exited $usage_rc without 'requires an argument'" >&2
  exit 1
fi

echo "== scorecard regression gate (vs bench/baselines/default.json) =="
bench_json="$tmpdir/bench.json"
dune exec bench/main.exe -- scorecards --apps redis,memcached --json "$bench_json" --check

echo "== regression gate rejects a perturbed baseline =="
# Lower one baseline entry to -100%: any non-negative current error now
# exceeds baseline + tolerance, so --check-json must fail.
bad_baseline="$tmpdir/bad_baseline.json"
sed 's/"scorecards\/redis\/redis\/l1i": [-0-9.eE+]*/"scorecards\/redis\/redis\/l1i": -100.0/' \
  bench/baselines/default.json > "$bad_baseline"
if ! grep -q -- '-100.0' "$bad_baseline"; then
  echo "ci: FAIL — could not perturb the baseline (key missing?)" >&2
  exit 1
fi
if dune exec bench/main.exe -- --check-json "$bench_json" --baseline "$bad_baseline"; then
  echo "ci: FAIL — regression gate accepted a perturbed baseline" >&2
  exit 1
fi
echo "(rejected, as intended)"

echo "== regression gate fails a document with no metric in common =="
empty_json="$tmpdir/empty.json"
echo '{}' > "$empty_json"
if dune exec bench/main.exe -- --check-json "$empty_json"; then
  echo "ci: FAIL — regression gate accepted an empty document" >&2
  exit 1
fi
echo "(rejected, as intended)"

echo "== regression gate refuses a truncated document (exit 2, no crash) =="
truncated_json="$tmpdir/truncated.json"
head -c 200 "$bench_json" > "$truncated_json"
truncated_log="$tmpdir/truncated.log"
truncated_rc=0
dune exec bench/main.exe -- --check-json "$truncated_json" >"$truncated_log" 2>&1 || truncated_rc=$?
cat "$truncated_log"
if [ "$truncated_rc" -ne 2 ]; then
  echo "ci: FAIL — --check-json on a truncated file exited $truncated_rc, expected 2" >&2
  exit 1
fi
if grep -q "Fatal error" "$truncated_log"; then
  echo "ci: FAIL — --check-json crashed on a truncated file" >&2
  exit 1
fi

echo "ci: OK"
