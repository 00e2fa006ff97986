#!/bin/sh
# End-to-end smoke test of the CLI tools, run by ctest:
# generate a dataset + patterns, build the CCSR artifact, match against
# both the artifact and the raw graph, run a concurrent serving session,
# and print stats.
#
# Set CSCE_TSAN=1 to additionally configure a ThreadSanitizer build of
# the test suite and run the runtime/concurrency tests under it (slow:
# it compiles the library with -fsanitize=thread; off by default so the
# regular ctest run stays fast).
set -e

BIN_DIR="$1"
WORK_DIR="${2:-$(mktemp -d)}"
mkdir -p "$WORK_DIR"

"$BIN_DIR/csce_gen" --dataset=yeast --out="$WORK_DIR/g.txt" \
    --pattern-size=6 --pattern-count=2 --density=dense --seed=5 \
    --pattern-prefix="$WORK_DIR/q_"

"$BIN_DIR/csce_build" --graph="$WORK_DIR/g.txt" --out="$WORK_DIR/g.ccsr" \
    --verbose

# v2 is the only artifact format: a leftover --format flag is reported
# as unknown, not silently honoured.
BUILD_ERR=$("$BIN_DIR/csce_build" --graph="$WORK_DIR/g.txt" \
    --out="$WORK_DIR/g_fmt.ccsr" --format=v1 2>&1 >/dev/null)
case "$BUILD_ERR" in
  *"unknown flag --format"*) ;;
  *) echo "FAIL: csce_build --format=v1 did not warn: '$BUILD_ERR'"; exit 1 ;;
esac

"$BIN_DIR/csce_stats" "$WORK_DIR/g.txt"

OUT_CCSR=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/g.ccsr" \
    --pattern="$WORK_DIR/q_0.txt" --variant=edge --explain)
OUT_GRAPH=$("$BIN_DIR/csce_match" --graph="$WORK_DIR/g.txt" \
    --pattern="$WORK_DIR/q_0.txt" --variant=edge)

COUNT_CCSR=$(printf '%s\n' "$OUT_CCSR" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')
COUNT_GRAPH=$(printf '%s\n' "$OUT_GRAPH" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')

if [ -z "$COUNT_CCSR" ] || [ "$COUNT_CCSR" != "$COUNT_GRAPH" ]; then
  echo "FAIL: ccsr path found '$COUNT_CCSR', graph path found '$COUNT_GRAPH'"
  exit 1
fi

# A dense pattern sampled from the graph occurs at least once.
if [ "$COUNT_CCSR" -lt 1 ]; then
  echo "FAIL: sampled pattern not found"
  exit 1
fi

# Morsel-parallel enumeration returns the same count as serial.
OUT_PAR=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/g.ccsr" \
    --pattern="$WORK_DIR/q_0.txt" --variant=edge --threads=4)
COUNT_PAR=$(printf '%s\n' "$OUT_PAR" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')
if [ "$COUNT_PAR" != "$COUNT_CCSR" ]; then
  echo "FAIL: --threads=4 found '$COUNT_PAR', serial found '$COUNT_CCSR'"
  exit 1
fi

# All three variants run against the artifact.
for variant in edge vertex hom; do
  "$BIN_DIR/csce_match" --ccsr="$WORK_DIR/g.ccsr" \
      --pattern="$WORK_DIR/q_1.txt" --variant="$variant" > /dev/null
done

# Pruning at the tool surface: the default passes (label-pair filter
# plus failing-set backjumping) and the --prune=none ablation print the
# same embeddings in the same order, and a deleted pass name is a usage
# error (exit 2) that names the token.
EMB_DEFAULT=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/g.ccsr" \
    --pattern="$WORK_DIR/q_0.txt" --variant=edge --print=1000000 | \
    grep '^embedding:')
EMB_NONE=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/g.ccsr" \
    --pattern="$WORK_DIR/q_0.txt" --variant=edge --print=1000000 \
    --prune=none | grep '^embedding:')
EMB_LINES=$(printf '%s\n' "$EMB_DEFAULT" | wc -l | tr -d ' ')
if [ "$EMB_LINES" != "$COUNT_CCSR" ] || [ "$EMB_DEFAULT" != "$EMB_NONE" ]; then
  echo "FAIL: default pruning printed $EMB_LINES embeddings (want" \
      "$COUNT_CCSR) or differs from --prune=none"
  exit 1
fi
PRUNE_RC=0
PRUNE_ERR=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/g.ccsr" \
    --pattern="$WORK_DIR/q_0.txt" --prune=aux 2>&1 >/dev/null) || PRUNE_RC=$?
if [ "$PRUNE_RC" != "2" ]; then
  echo "FAIL: --prune=aux exited '$PRUNE_RC', want 2"
  exit 1
fi
case "$PRUNE_ERR" in
  *'"aux"'*) ;;
  *) echo "FAIL: --prune=aux error does not name the pass: $PRUNE_ERR"; exit 1 ;;
esac
echo "PASS: --prune default matches --prune=none; --prune=aux rejected"

# Concurrent serving session over the same workload: both patterns,
# repeated so the shared cluster cache gets hits, per-query counts
# matching the standalone tool.
cat > "$WORK_DIR/queries.txt" <<EOF
# smoke workload
$WORK_DIR/q_0.txt edge
$WORK_DIR/q_1.txt hom
$WORK_DIR/q_1.txt vertex
STATS
EOF
OUT_SERVE=$("$BIN_DIR/csce_serve" --ccsr="$WORK_DIR/g.ccsr" \
    --queries="$WORK_DIR/queries.txt" --threads=4 --inflight=2 --repeat=2)
printf '%s\n' "$OUT_SERVE" | tail -1
case "$OUT_SERVE" in
  *'"completed": 6'*) ;;
  *) echo "FAIL: csce_serve did not complete all 6 queries"; exit 1 ;;
esac
SERVE_EDGE=$(printf '%s\n' "$OUT_SERVE" | \
    sed -n 's/.*q_0.txt variant=edge-induced status=ok embeddings=\([0-9]*\).*/\1/p' | \
    head -1)
if [ "$SERVE_EDGE" != "$COUNT_CCSR" ]; then
  echo "FAIL: csce_serve edge count '$SERVE_EDGE' != csce_match '$COUNT_CCSR'"
  exit 1
fi
# The STATS workload directive emits a cumulative metrics line per batch.
STATS_LINES=$(printf '%s\n' "$OUT_SERVE" | grep -c '^STATS {' || true)
if [ "$STATS_LINES" != "2" ]; then
  echo "FAIL: expected 2 STATS lines (repeat=2), got '$STATS_LINES'"
  exit 1
fi

# Out-of-core mode: --mmap maps the artifact instead of reading it into
# memory. The mapped index must find the in-memory count, also under a
# one-page memory cap that drops advised clusters behind the frontier,
# and serve the same workload.
for cap in 0 4096; do
  OUT_MMAP=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/g.ccsr" \
      --pattern="$WORK_DIR/q_0.txt" --variant=edge --mmap \
      --memory-cap="$cap")
  COUNT_MMAP=$(printf '%s\n' "$OUT_MMAP" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')
  if [ -z "$COUNT_MMAP" ] || [ "$COUNT_MMAP" != "$COUNT_CCSR" ]; then
    echo "FAIL: --mmap --memory-cap=$cap found '$COUNT_MMAP', in-memory found '$COUNT_CCSR'"
    exit 1
  fi
done
OUT_SERVE_MMAP=$("$BIN_DIR/csce_serve" --ccsr="$WORK_DIR/g.ccsr" --mmap \
    --queries="$WORK_DIR/queries.txt" --threads=4 --inflight=2)
case "$OUT_SERVE_MMAP" in
  *'"completed": 3'*) ;;
  *) echo "FAIL: csce_serve --mmap did not complete all 3 queries"; exit 1 ;;
esac
SERVE_MMAP_EDGE=$(printf '%s\n' "$OUT_SERVE_MMAP" | \
    sed -n 's/.*q_0.txt variant=edge-induced status=ok embeddings=\([0-9]*\).*/\1/p' | \
    head -1)
if [ "$SERVE_MMAP_EDGE" != "$COUNT_CCSR" ]; then
  echo "FAIL: csce_serve --mmap edge count '$SERVE_MMAP_EDGE' != csce_match '$COUNT_CCSR'"
  exit 1
fi
echo "PASS: --mmap matches the in-memory index (csce_match, capped, csce_serve)"

# Self-check mode on Patent(18): deep-validate the CCSR, then re-verify
# every emitted embedding and every SCE cache reuse against ground
# truth, serial and morsel-parallel. verified must equal the embedding
# count in both runs.
"$BIN_DIR/csce_gen" --dataset=patent --labels=18 --out="$WORK_DIR/patent.txt" \
    --pattern-size=5 --pattern-count=1 --density=dense --seed=7 \
    --pattern-prefix="$WORK_DIR/pq_"
"$BIN_DIR/csce_build" --graph="$WORK_DIR/patent.txt" \
    --out="$WORK_DIR/patent.ccsr"
for threads in 1 8; do
  OUT_SC=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/patent.ccsr" \
      --pattern="$WORK_DIR/pq_0.txt" --variant=edge --self-check \
      --threads="$threads")
  COUNT_SC=$(printf '%s\n' "$OUT_SC" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')
  VERIFIED_SC=$(printf '%s\n' "$OUT_SC" | \
      sed -n 's/.*verified=\([0-9]*\).*/\1/p')
  case "$OUT_SC" in
    *'mismatches=0'*) ;;
    *) echo "FAIL: self-check (threads=$threads) reported mismatches"; exit 1 ;;
  esac
  if [ -z "$COUNT_SC" ] || [ "$VERIFIED_SC" != "$COUNT_SC" ]; then
    echo "FAIL: self-check threads=$threads verified '$VERIFIED_SC' of '$COUNT_SC' embeddings"
    exit 1
  fi
done
echo "PASS: Patent(18) self-check clean at 1 and 8 threads"

# Vertex-induced self-check at a large size: a 48-vertex dense pattern
# sampled from the same Patent(18) graph, first 100 embeddings. The
# negation-explained failing sets backjump here, so the sanitizer and
# mmap legs exercise them at a size where the unpruned search cannot
# finish. The run must find an embedding without timing out, and
# verify every embedding it counts.
"$BIN_DIR/csce_gen" --dataset=patent --labels=18 \
    --out="$WORK_DIR/patent48.txt" --pattern-size=48 --pattern-count=1 \
    --density=dense --seed=7 --pattern-prefix="$WORK_DIR/pq48_"
for threads in 1 8; do
  OUT_VI=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/patent.ccsr" \
      --pattern="$WORK_DIR/pq48_0.txt" --variant=vertex --self-check \
      --max=100 --time-limit=60 --threads="$threads")
  COUNT_VI=$(printf '%s\n' "$OUT_VI" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')
  VERIFIED_VI=$(printf '%s\n' "$OUT_VI" | \
      sed -n 's/.*verified=\([0-9]*\).*/\1/p')
  case "$OUT_VI" in
    *'timed out'*) echo "FAIL: vertex-induced n=48 (threads=$threads) timed out"; exit 1 ;;
  esac
  case "$OUT_VI" in
    *'mismatches=0'*) ;;
    *) echo "FAIL: vertex-induced n=48 self-check (threads=$threads) reported mismatches"; exit 1 ;;
  esac
  if [ -z "$COUNT_VI" ] || [ "$COUNT_VI" -lt 1 ] || \
      [ "$VERIFIED_VI" != "$COUNT_VI" ]; then
    echo "FAIL: vertex-induced n=48 threads=$threads verified '$VERIFIED_VI' of '$COUNT_VI' embeddings"
    exit 1
  fi
done
echo "PASS: 48-vertex vertex-induced self-check clean at 1 and 8 threads"

# Observability artifacts: --metrics-json and --trace on the same
# Patent(18) query at 1 and 8 threads must be well-formed, with the
# embedding count unchanged by instrumentation and the deterministic
# counters (embeddings, search nodes) identical across thread counts.
for threads in 1 8; do
  OUT_OBS=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/patent.ccsr" \
      --pattern="$WORK_DIR/pq_0.txt" --variant=edge --threads="$threads" \
      --metrics-json="$WORK_DIR/metrics_$threads.json" \
      --trace="$WORK_DIR/trace_$threads.json")
  COUNT_OBS=$(printf '%s\n' "$OUT_OBS" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')
  OUT_PLAIN=$("$BIN_DIR/csce_match" --ccsr="$WORK_DIR/patent.ccsr" \
      --pattern="$WORK_DIR/pq_0.txt" --variant=edge --threads="$threads")
  COUNT_PLAIN=$(printf '%s\n' "$OUT_PLAIN" | sed -n 's/.*embeddings=\([0-9]*\).*/\1/p')
  if [ -z "$COUNT_OBS" ] || [ "$COUNT_OBS" != "$COUNT_PLAIN" ]; then
    echo "FAIL: instrumented run (threads=$threads) found '$COUNT_OBS', plain '$COUNT_PLAIN'"
    exit 1
  fi
  for f in "$WORK_DIR/metrics_$threads.json" "$WORK_DIR/trace_$threads.json"; do
    if [ ! -s "$f" ]; then
      echo "FAIL: $f missing or empty"
      exit 1
    fi
  done
  grep -q '"schema": "csce.metrics.v1"' "$WORK_DIR/metrics_$threads.json" || {
    echo "FAIL: metrics_$threads.json lacks the csce.metrics.v1 schema tag"
    exit 1
  }
  grep -q '"traceEvents"' "$WORK_DIR/trace_$threads.json" || {
    echo "FAIL: trace_$threads.json lacks traceEvents"
    exit 1
  }
done
if command -v python3 > /dev/null 2>&1; then
  python3 - "$WORK_DIR" <<'EOF'
import json, sys
work = sys.argv[1]
counters = {}
for threads in (1, 8):
    for kind in ("metrics", "trace"):
        with open(f"{work}/{kind}_{threads}.json") as f:
            doc = json.load(f)  # raises on malformed output
    with open(f"{work}/metrics_{threads}.json") as f:
        counters[threads] = json.load(f)["metrics"]["counters"]
for key in ("engine.embeddings", "engine.search_nodes"):
    if counters[1][key] != counters[8][key]:
        sys.exit(f"FAIL: {key} differs: {counters[1][key]} vs {counters[8][key]}")
print("PASS: metrics/trace JSON valid, counters thread-count invariant")
EOF
else
  echo "PASS: metrics/trace artifacts present (python3 unavailable, shallow check)"
fi

# Sharded execution: partition the yeast graph into 4 shards at build
# time, then serve the same query with 4 forked worker processes. The
# coordinator must report the exact embedding count the single-node
# tools produced, and the merged per-worker metrics must be a valid
# csce.metrics.v1 document.
"$BIN_DIR/csce_build" --graph="$WORK_DIR/g.txt" --out="$WORK_DIR/gs.ccsr" \
    --shards=4 --shard-strategy=label --verbose
[ -s "$WORK_DIR/gs.ccsr.shardplan" ] || {
  echo "FAIL: csce_build --shards=4 left no shard plan"
  exit 1
}
for s in 0 1 2 3; do
  [ -s "$WORK_DIR/gs.ccsr.shard$s" ] || {
    echo "FAIL: csce_build --shards=4 left no shard $s CCSR"
    exit 1
  }
done
cat > "$WORK_DIR/shard_queries.txt" <<EOF
$WORK_DIR/q_0.txt edge
EOF
OUT_SHARD=$("$BIN_DIR/csce_serve" --ccsr="$WORK_DIR/gs.ccsr" \
    --shards=4 --workers=4 --self-check \
    --queries="$WORK_DIR/shard_queries.txt" \
    --metrics-json="$WORK_DIR/metrics_shard.json")
SHARD_EDGE=$(printf '%s\n' "$OUT_SHARD" | \
    sed -n 's/.*q_0.txt variant=edge-induced status=ok embeddings=\([0-9]*\).*/\1/p' | \
    head -1)
if [ -z "$SHARD_EDGE" ] || [ "$SHARD_EDGE" != "$COUNT_CCSR" ]; then
  echo "FAIL: sharded serve found '$SHARD_EDGE', csce_match found '$COUNT_CCSR'"
  exit 1
fi
grep -q '"schema": "csce.metrics.v1"' "$WORK_DIR/metrics_shard.json" || {
  echo "FAIL: merged shard metrics lack the csce.metrics.v1 schema tag"
  exit 1
}
echo "PASS: 4 forked shard workers match csce_match ($SHARD_EDGE embeddings)"

# In-process shards from the raw graph: the coordinator partitions it
# and ships each worker its shard graph inline (LOAD), and the worker
# builds its own CCSR. Same count as the single-node tools.
OUT_INLINE=$("$BIN_DIR/csce_serve" --graph="$WORK_DIR/g.txt" --shards=2 \
    --queries="$WORK_DIR/shard_queries.txt")
INLINE_EDGE=$(printf '%s\n' "$OUT_INLINE" | \
    sed -n 's/.*q_0.txt variant=edge-induced status=ok embeddings=\([0-9]*\).*/\1/p' | \
    head -1)
if [ -z "$INLINE_EDGE" ] || [ "$INLINE_EDGE" != "$COUNT_CCSR" ]; then
  echo "FAIL: inline-LOAD shards found '$INLINE_EDGE', csce_match found '$COUNT_CCSR'"
  exit 1
fi
echo "PASS: 2 in-process shards loaded inline match csce_match ($INLINE_EDGE embeddings)"

# Fault injection, recovery path: kill shard 0's worker process after
# its second frame (mid-session, post-LOAD). Supervision must re-fork
# the worker, replay its journal and re-dispatch, so the session exits
# 0 with the exact single-node count and a nonzero restart counter in
# the merged metrics document.
OUT_FAULT=$("$BIN_DIR/csce_serve" --ccsr="$WORK_DIR/gs.ccsr" \
    --shards=4 --workers=4 --fault-plan=kill@0:2 \
    --queries="$WORK_DIR/shard_queries.txt" \
    --metrics-json="$WORK_DIR/metrics_fault.json")
FAULT_EDGE=$(printf '%s\n' "$OUT_FAULT" | \
    sed -n 's/.*q_0.txt variant=edge-induced status=ok embeddings=\([0-9]*\).*/\1/p' | \
    head -1)
if [ -z "$FAULT_EDGE" ] || [ "$FAULT_EDGE" != "$COUNT_CCSR" ]; then
  echo "FAIL: recovered sharded serve found '$FAULT_EDGE', csce_match found '$COUNT_CCSR'"
  exit 1
fi
RESTARTS=$(sed -n 's/.*"shard\.worker_restarts": \([0-9]*\).*/\1/p' \
    "$WORK_DIR/metrics_fault.json" | head -1)
if [ -z "$RESTARTS" ] || [ "$RESTARTS" -lt 1 ]; then
  echo "FAIL: shard.worker_restarts is '$RESTARTS' after kill@0:2, want >= 1"
  exit 1
fi
echo "PASS: killed worker recovered ($FAULT_EDGE embeddings, $RESTARTS restart(s))"

# Fault injection, failure path: same kill with supervision disabled.
# The session must exit nonzero (a worker died and nothing recovered
# it), report the loss on stderr, and still flush a metrics document
# with a nonzero shard.workers_lost counter. Regression test: this
# used to exit 0 and write nothing.
LOST_RC=0
"$BIN_DIR/csce_serve" --ccsr="$WORK_DIR/gs.ccsr" \
    --shards=4 --workers=4 --fault-plan=kill@0:2 --no-supervision \
    --queries="$WORK_DIR/shard_queries.txt" \
    --metrics-json="$WORK_DIR/metrics_lost.json" \
    > "$WORK_DIR/lost.out" 2> "$WORK_DIR/lost.err" || LOST_RC=$?
if [ "$LOST_RC" = "0" ]; then
  echo "FAIL: csce_serve exited 0 despite losing a worker with --no-supervision"
  exit 1
fi
grep -q 'error:' "$WORK_DIR/lost.err" || {
  echo "FAIL: lost-worker session printed no error on stderr"
  exit 1
}
LOST=$(sed -n 's/.*"shard\.workers_lost": \([0-9]*\).*/\1/p' \
    "$WORK_DIR/metrics_lost.json" | head -1)
if [ -z "$LOST" ] || [ "$LOST" -lt 1 ]; then
  echo "FAIL: shard.workers_lost is '$LOST' after unsupervised kill, want >= 1"
  exit 1
fi
echo "PASS: unsupervised worker loss exits $LOST_RC with workers_lost=$LOST"

# SIGINT mid-session still flushes --metrics-json: hold stdin open via
# a fifo so the session never sees EOF, deliver SIGINT, and expect exit
# 130 plus a well-formed metrics artifact.
rm -f "$WORK_DIR/sig.fifo"
mkfifo "$WORK_DIR/sig.fifo"
"$BIN_DIR/csce_serve" --ccsr="$WORK_DIR/g.ccsr" --queries=- \
    --metrics-json="$WORK_DIR/metrics_sig.json" \
    < "$WORK_DIR/sig.fifo" > "$WORK_DIR/sig.out" 2>&1 &
SERVE_PID=$!
exec 3> "$WORK_DIR/sig.fifo"
printf '%s edge\n' "$WORK_DIR/q_0.txt" >&3
sleep 1
kill -INT "$SERVE_PID"
SIG_RC=0
wait "$SERVE_PID" || SIG_RC=$?
exec 3>&-
if [ "$SIG_RC" != "130" ]; then
  echo "FAIL: csce_serve exit on SIGINT was '$SIG_RC', want 130"
  exit 1
fi
grep -q '"schema": "csce.metrics.v1"' "$WORK_DIR/metrics_sig.json" || {
  echo "FAIL: SIGINT-flushed metrics missing the csce.metrics.v1 schema tag"
  exit 1
}
echo "PASS: SIGINT flushed csce.metrics.v1 before exit $SIG_RC"

# Optional TSan pass over the runtime subsystem's tests.
if [ -n "${CSCE_TSAN:-}" ]; then
  SRC_DIR=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
  TSAN_DIR="$WORK_DIR/tsan_build"
  cmake -S "$SRC_DIR" -B "$TSAN_DIR" -DCSCE_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$TSAN_DIR" --target csce_tests -j "$(nproc)" > /dev/null
  (cd "$TSAN_DIR" && ctest \
      -R 'ThreadPool|StopToken|ParallelExecutor|QueryRuntime|ClusterCacheConcurrency|MetricRegistry|EngineMetrics' \
      --output-on-failure)
  echo "PASS: runtime tests clean under TSan"
fi

echo "PASS: tools pipeline ($COUNT_CCSR embeddings)"
