#!/usr/bin/env bash
# Benchmark suite runner: executes the hot-path benchmarks (wire protocol,
# shard apply, streaming analyzer, checkpoint store, obs primitives, e2e
# ingest, durable-FIN session pair, handoff retry, tsq query engine) and
# records the results
# as BENCH_<date>.json in the repo root — including the derived
# durable_fin_overhead_pct (price of -durable-fin per session) and
# handoff_retry_total (retries per shipped handoff under a flaky survivor).
#
# The apply pair (BenchmarkApplyBatchInstrumented vs BenchmarkApplyBatchBare)
# is the instrumentation budget check from DESIGN.md: the instrumented shard
# apply path must stay within 3% of the bare baseline and allocate nothing.
# Each benchmark runs COUNT times and the fastest run is recorded, which
# damps scheduler noise on shared machines.
#
# After writing the new JSON the script compares it against the most
# recent previous BENCH_*.json and fails on a >15% regression in the apply
# budget pair (ns_per_op), any decode throughput (decode_mbps) metric,
# the aggregator merge cycle (aggregate_merge_ms), or the tsq windowed
# query latency (query_p50_ms), so a slow decoder, a merge that goes
# quadratic in devices, or a query plan that stops pruning blocks can't
# land silently. -no-compare skips that gate (first run on a new machine,
# or a deliberate trade-off).
#
# Usage: scripts/bench.sh [-no-compare] [out.json]
#   BENCHTIME=2s COUNT=5 scripts/bench.sh   # longer, steadier runs
set -euo pipefail
cd "$(dirname "$0")/.."

COMPARE=1
OUT=""
for arg in "$@"; do
  case "$arg" in
    -no-compare) COMPARE=0 ;;
    *) OUT=$arg ;;
  esac
done
OUT=${OUT:-BENCH_$(date +%F).json}
BENCHTIME=${BENCHTIME:-1s}
COUNT=${COUNT:-3}
RAW=$(mktemp)
PREV=$(mktemp)
trap 'rm -f "$RAW" "$PREV"' EXIT

# Snapshot the newest previous run before $OUT overwrites it (same-day
# reruns share the file name).
PREV_NAME=""
for f in $(ls -1t BENCH_*.json 2>/dev/null); do
  PREV_NAME=$f
  cp "$f" "$PREV"
  break
done

echo "bench: hot-path packages (benchtime=$BENCHTIME count=$COUNT)" >&2
go test -run '^$' -bench . -benchmem -benchtime="$BENCHTIME" -count="$COUNT" \
  ./internal/obs/ ./internal/ingest/ ./internal/analysis/ | tee "$RAW" >&2

# The apply pair gets extra, longer samples: the overhead being measured
# (~150ns per 20µs batch) is well under run-to-run scheduler jitter, so the
# budget check needs many runs and takes the fastest of each. On a noisy
# (single-core, shared) machine even that flakes, so an over-budget
# estimate triggers resampling: samples accumulate across attempts and
# the fastest-of estimate only improves, so a genuine regression still
# fails after APPLY_ATTEMPTS rounds.
APPLY_BENCHTIME=${APPLY_BENCHTIME:-2s}
APPLY_COUNT=${APPLY_COUNT:-5}
APPLY_ATTEMPTS=${APPLY_ATTEMPTS:-3}
attempt=1
while :; do
  echo "bench: apply budget pair (benchtime=$APPLY_BENCHTIME count=$APPLY_COUNT attempt=$attempt/$APPLY_ATTEMPTS)" >&2
  go test -run '^$' -bench 'BenchmarkApplyBatch(Instrumented|Bare)$' -benchmem \
    -benchtime="$APPLY_BENCHTIME" -count="$APPLY_COUNT" ./internal/ingest/ | tee -a "$RAW" >&2
  est=$(awk '
    /^BenchmarkApplyBatch(Instrumented|Bare)/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      ns = ""
      for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") ns = $i
      if (ns != "" && (!(name in best) || ns + 0 < best[name] + 0)) best[name] = ns
    }
    END {
      b = best["BenchmarkApplyBatchBare"]; ins = best["BenchmarkApplyBatchInstrumented"]
      if (b + 0 > 0 && ins != "") printf "%.2f", 100 * (ins - b) / b
    }' "$RAW")
  if [ -z "$est" ] || awk -v p="$est" 'BEGIN { exit (p + 0 <= 3.0 ? 0 : 1) }'; then
    break
  fi
  if [ "$attempt" -ge "$APPLY_ATTEMPTS" ]; then
    break
  fi
  echo "bench: apply overhead estimate ${est}% over budget — resampling" >&2
  attempt=$((attempt + 1))
done

# Container decode throughput: the v1 readers vs blocked METR-2, serial
# and block-parallel. Each reports decode_mbps (flat-container MB of the
# same logical records decoded per second), so the formats are directly
# comparable; the fixture is ~50 MB, so a few fixed iterations beat a
# time-based budget here.
TRACE_BENCHTIME=${TRACE_BENCHTIME:-3x}
TRACE_COUNT=${TRACE_COUNT:-3}
echo "bench: trace container decode (benchtime=$TRACE_BENCHTIME count=$TRACE_COUNT)" >&2
go test -run '^$' -bench 'BenchmarkDecode' -benchmem \
  -benchtime="$TRACE_BENCHTIME" -count="$TRACE_COUNT" ./internal/trace/ | tee -a "$RAW" >&2

# Durable FIN cost pair: identical session workloads with the FIN-ack
# checkpoint commit on and off. Fixed iterations: each op is 8 concurrent
# real TCP sessions ending in a (possibly fsynced) FIN commit, so a
# time-based budget would wildly vary b.N between the two variants.
FIN_BENCHTIME=${FIN_BENCHTIME:-30x}
echo "bench: durable FIN pair (benchtime=$FIN_BENCHTIME count=$COUNT)" >&2
go test -run '^$' -bench 'BenchmarkFin(Durable|Volatile)$' -benchmem \
  -benchtime="$FIN_BENCHTIME" -count="$COUNT" ./internal/ingest/ | tee -a "$RAW" >&2

# Dead-member handoff with a flaky survivor: each op ships a checkpoint
# through one 503-then-succeed retry; handoff_retry_total records retries
# per shipped handoff.
echo "bench: checkpoint handoff retry (benchtime=5x count=$COUNT)" >&2
go test -run '^$' -bench 'BenchmarkShipCheckpointRetry$' -benchmem \
  -benchtime=5x -count="$COUNT" ./internal/cluster/ | tee -a "$RAW" >&2

# Fleet merge cycle: aggregatord's pull-and-merge loop against three
# in-process nodes. Reports aggregate_merge_ms (wall time of one full
# cycle), which bounds fleet-headline staleness at a given pull interval;
# iteration-counted because each cycle does real HTTP round trips.
MERGE_BENCHTIME=${MERGE_BENCHTIME:-5x}
echo "bench: aggregator merge cycle (benchtime=$MERGE_BENCHTIME count=$COUNT)" >&2
go test -run '^$' -bench 'BenchmarkAggregateMerge' -benchmem \
  -benchtime="$MERGE_BENCHTIME" -count="$COUNT" ./internal/cluster/ | tee -a "$RAW" >&2

# Time-series query engine: a whole-span hour-windowed top-N query over a
# fixed on-disk segment fixture (reports query_p50_ms), plus the narrow
# pushdown query that asserts blocks actually get pruned. Iteration-
# counted: each op re-reads real files.
TSQ_BENCHTIME=${TSQ_BENCHTIME:-5x}
echo "bench: tsq query engine (benchtime=$TSQ_BENCHTIME count=$COUNT)" >&2
go test -run '^$' -bench 'BenchmarkQuery' -benchmem \
  -benchtime="$TSQ_BENCHTIME" -count="$COUNT" ./internal/tsq/ | tee -a "$RAW" >&2

echo "bench: paper-artifact benchmarks (1 iteration each)" >&2
go test -run '^$' -bench . -benchmem -benchtime=1x . | tee -a "$RAW" >&2

# Record the static-analysis suite's wall time alongside the runtime
# numbers: repolint loads and type-checks the whole module, so an analyzer
# that goes quadratic shows up here before it starts dragging `make ci`.
echo "bench: repolint wall time (full module, standalone)" >&2
mkdir -p bin
go build -o bin/repolint ./cmd/repolint
t0=$(date +%s.%N)
./bin/repolint ./...
t1=$(date +%s.%N)
REPOLINT_SECONDS=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')
echo "bench: repolint ./... took ${REPOLINT_SECONDS}s" >&2

awk -v date="$(date +%F)" -v gover="$(go version | awk '{print $3}')" \
    -v repolint_s="$REPOLINT_SECONDS" '
BEGIN { n = 0 }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
  ns = ""; bop = ""; aop = ""; extra_k = ""; extra_v = ""; mbps = ""; merge_ms = ""
  fin_ms = ""; retry = ""; qp50 = ""
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    else if ($(i+1) == "B/op") bop = $i
    else if ($(i+1) == "allocs/op") aop = $i
    else if ($(i+1) == "decode_mbps") mbps = $i
    else if ($(i+1) == "aggregate_merge_ms") merge_ms = $i
    else if ($(i+1) == "fin_session_ms") fin_ms = $i
    else if ($(i+1) == "handoff_retry_total") retry = $i
    else if ($(i+1) == "query_p50_ms") qp50 = $i
    else if ($(i+1) ~ /\//) { extra_k = $(i+1); extra_v = $i }
  }
  if (ns == "") next
  key = pkg "\t" name
  if (!(key in best) || ns + 0 < best[key] + 0) {
    best[key] = ns
    line = sprintf("    {\"package\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %s", pkg, name, ns)
    if (bop != "") line = line sprintf(", \"bytes_per_op\": %s", bop)
    if (aop != "") line = line sprintf(", \"allocs_per_op\": %s", aop)
    if (mbps != "") line = line sprintf(", \"decode_mbps\": %s", mbps)
    if (merge_ms != "") line = line sprintf(", \"aggregate_merge_ms\": %s", merge_ms)
    if (fin_ms != "") line = line sprintf(", \"fin_session_ms\": %s", fin_ms)
    if (retry != "") line = line sprintf(", \"handoff_retry_total\": %s", retry)
    if (qp50 != "") line = line sprintf(", \"query_p50_ms\": %s", qp50)
    if (extra_k != "") line = line sprintf(", \"%s\": %s", extra_k, extra_v)
    line = line "}"
    out[key] = line
    if (!(key in seen)) { order[n++] = key; seen[key] = 1 }
  }
  if (name == "BenchmarkApplyBatchInstrumented") instr = best[key]
  if (name == "BenchmarkApplyBatchBare") bare = best[key]
  if (name == "BenchmarkFinDurable") fin_dur = best[key]
  if (name == "BenchmarkFinVolatile") fin_vol = best[key]
}
END {
  printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n", date, gover
  if (repolint_s != "") printf "  \"repolint_seconds\": %s,\n", repolint_s
  if (bare + 0 > 0) {
    pct = 100 * (instr - bare) / bare
    if (pct < 0) pct = 0
    printf "  \"apply_instrumentation_overhead_pct\": %.2f,\n", pct
    printf "  \"apply_overhead_budget_pct\": 3.0,\n"
  }
  # The -durable-fin cost: extra per-session latency of the FIN-ack group
  # commit, as a percentage of the volatile session. Dominated by fsync, so
  # it is an absolute-latency trade (see fin_session_ms), not a throughput
  # budget like the apply pair.
  if (fin_vol + 0 > 0 && fin_dur != "") {
    pct = 100 * (fin_dur - fin_vol) / fin_vol
    if (pct < 0) pct = 0
    printf "  \"durable_fin_overhead_pct\": %.2f,\n", pct
  }
  printf "  \"benchmarks\": [\n"
  for (i = 0; i < n; i++) printf "%s%s\n", out[order[i]], (i < n - 1 ? "," : "")
  printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "bench: wrote $OUT" >&2

# Enforce the instrumentation budget recorded above.
pct=$(awk -F'[:,]' '/apply_instrumentation_overhead_pct/ {print $2}' "$OUT" | tr -d ' ')
if [ -n "$pct" ]; then
  awk -v p="$pct" 'BEGIN { exit (p + 0 <= 3.0 ? 0 : 1) }' || {
    echo "bench: FAIL apply instrumentation overhead ${pct}% exceeds 3% budget" >&2
    exit 1
  }
  echo "bench: apply instrumentation overhead ${pct}% (budget 3%)" >&2
fi

# Trajectory gate: compare against the previous run. The apply pair may
# not get >15% slower (ns_per_op up), no decode throughput may drop >15%
# (decode_mbps down), the aggregator merge cycle may not stretch >15%
# (aggregate_merge_ms up), and the static-analysis suite may not slow >15%
# (repolint_seconds up — new analyzers must pay for themselves with
# parallelism); metrics absent from either side are skipped, so the first
# run that introduces a benchmark just records its baseline.
if [ "$COMPARE" = 1 ] && [ -n "$PREV_NAME" ]; then
  echo "bench: comparing against $PREV_NAME (fail on >15% regression; -no-compare skips)" >&2
  awk '
  function metric(line, key,   m) {
    if (match(line, "\"" key "\": [0-9.]+")) {
      m = substr(line, RSTART, RLENGTH)
      sub("\"" key "\": ", "", m)
      return m
    }
    return ""
  }
  /"name": / {
    if (!match($0, /"name": "[^"]+"/)) next
    name = substr($0, RSTART + 9, RLENGTH - 10)
    if (FNR == NR) {
      old_ns[name] = metric($0, "ns_per_op")
      old_mbps[name] = metric($0, "decode_mbps")
      old_merge[name] = metric($0, "aggregate_merge_ms")
      old_qp50[name] = metric($0, "query_p50_ms")
      next
    }
    ns = metric($0, "ns_per_op"); mbps = metric($0, "decode_mbps")
    merge = metric($0, "aggregate_merge_ms")
    qp50 = metric($0, "query_p50_ms")
    if (name ~ /^BenchmarkApplyBatch(Instrumented|Bare)$/ && ns != "" && old_ns[name] != "" && old_ns[name] + 0 > 0) {
      pct = 100 * (ns - old_ns[name]) / old_ns[name]
      printf "bench: %s ns_per_op %s -> %s (%+.1f%%)\n", name, old_ns[name], ns, pct > "/dev/stderr"
      if (pct > 15) { printf "bench: FAIL %s regressed %.1f%% (>15%%)\n", name, pct > "/dev/stderr"; bad = 1 }
    }
    if (mbps != "" && old_mbps[name] != "" && old_mbps[name] + 0 > 0) {
      pct = 100 * (old_mbps[name] - mbps) / old_mbps[name]
      printf "bench: %s decode_mbps %s -> %s (%+.1f%% throughput)\n", name, old_mbps[name], mbps, -pct > "/dev/stderr"
      if (pct > 15) { printf "bench: FAIL %s decode throughput fell %.1f%% (>15%%)\n", name, pct > "/dev/stderr"; bad = 1 }
    }
    if (merge != "" && old_merge[name] != "" && old_merge[name] + 0 > 0) {
      pct = 100 * (merge - old_merge[name]) / old_merge[name]
      printf "bench: %s aggregate_merge_ms %s -> %s (%+.1f%%)\n", name, old_merge[name], merge, pct > "/dev/stderr"
      if (pct > 15) { printf "bench: FAIL %s merge cycle stretched %.1f%% (>15%%)\n", name, pct > "/dev/stderr"; bad = 1 }
    }
    if (qp50 != "" && old_qp50[name] != "" && old_qp50[name] + 0 > 0) {
      pct = 100 * (qp50 - old_qp50[name]) / old_qp50[name]
      printf "bench: %s query_p50_ms %s -> %s (%+.1f%%)\n", name, old_qp50[name], qp50, pct > "/dev/stderr"
      if (pct > 15) { printf "bench: FAIL %s query latency stretched %.1f%% (>15%%)\n", name, pct > "/dev/stderr"; bad = 1 }
    }
  }
  END { exit bad ? 1 : 0 }
  ' "$PREV" "$OUT" || { echo "bench: FAIL regression vs $PREV_NAME" >&2; exit 1; }
  old_rs=$(awk -F'[:,]' '/"repolint_seconds"/ {print $2; exit}' "$PREV" | tr -d ' ')
  new_rs=$(awk -F'[:,]' '/"repolint_seconds"/ {print $2; exit}' "$OUT" | tr -d ' ')
  if [ -n "$old_rs" ] && [ -n "$new_rs" ]; then
    awk -v a="$old_rs" -v b="$new_rs" 'BEGIN {
      pct = 100 * (b - a) / a
      printf "bench: repolint_seconds %s -> %s (%+.1f%%)\n", a, b, pct > "/dev/stderr"
      exit (pct <= 15 ? 0 : 1)
    }' || { echo "bench: FAIL repolint wall time regressed >15% vs $PREV_NAME" >&2; exit 1; }
  fi
elif [ "$COMPARE" = 1 ]; then
  echo "bench: no previous BENCH_*.json to compare against" >&2
fi
