#!/usr/bin/env bash
# Multi-process net smoke: boots the full wire-level serving topology —
# two shenjing_serverd backends plus a shenjing_router in front — then drives
# it with bench_net_loadgen over real TCP and tears everything down with
# SIGTERM, asserting every process drains and exits 0.
#
# This is the CI lane that actually exercises the network path: distinct
# processes, ephemeral ports (--port-file handshake, so parallel CI jobs
# can't collide), wire-level bit-exactness verification inside the loadgen,
# and graceful drain as the pass criterion rather than kill -9.
#
# Usage: tools/net_smoke.sh [build_dir]
#   NET_SMOKE_REQUESTS  open-loop request count   (default 1200)
#   NET_SMOKE_OUT       scratch/artifact dir      (default <build>/net_smoke)
#
# Artifacts left in $NET_SMOKE_OUT: BENCH_net.json, backend[01]_metrics.json,
# and the three process logs.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${NET_SMOKE_OUT:-$BUILD_DIR/net_smoke}
REQUESTS=${NET_SMOKE_REQUESTS:-1200}

for bin in shenjing_serverd shenjing_router bench_net_loadgen; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "net_smoke: $BUILD_DIR/$bin missing — build the repo first" >&2
    exit 2
  fi
done
BUILD_DIR_ABS=$(cd "$BUILD_DIR" && pwd)

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

wait_port_file() {
  # The processes write their ephemeral port atomically once the listener is
  # up; waiting on the file both sequences the boot and yields the port.
  local file=$1 tries=0
  until [ -s "$file" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
      echo "net_smoke: timed out waiting for $file" >&2
      exit 2
    fi
    sleep 0.05
  done
  cat "$file"
}

echo "== net_smoke: booting 2 backends + router =="
"$BUILD_DIR/shenjing_serverd" --port-file "$OUT_DIR/b0.port" \
    --metrics-dump "$OUT_DIR/backend0_metrics.json" \
    >"$OUT_DIR/backend0.log" 2>&1 &
B0_PID=$!; PIDS+=("$B0_PID")
"$BUILD_DIR/shenjing_serverd" --port-file "$OUT_DIR/b1.port" \
    --metrics-dump "$OUT_DIR/backend1_metrics.json" \
    >"$OUT_DIR/backend1.log" 2>&1 &
B1_PID=$!; PIDS+=("$B1_PID")

B0_PORT=$(wait_port_file "$OUT_DIR/b0.port")
B1_PORT=$(wait_port_file "$OUT_DIR/b1.port")

"$BUILD_DIR/shenjing_router" --backends "$B0_PORT,$B1_PORT" \
    --port-file "$OUT_DIR/router.port" \
    >"$OUT_DIR/router.log" 2>&1 &
ROUTER_PID=$!; PIDS+=("$ROUTER_PID")
ROUTER_PORT=$(wait_port_file "$OUT_DIR/router.port")
echo "backends on :$B0_PORT :$B1_PORT, router on :$ROUTER_PORT"

echo "== net_smoke: loadgen ($REQUESTS open-loop requests via router) =="
# The loadgen exits nonzero on any wire error or bit-exactness mismatch; it
# also retries its first frame while the router's health loop discovers the
# backends, so no sleep is needed between boot and load. The timeout turns a
# wire stall (requests that are never answered) into a failure instead of a
# hung job.
(cd "$OUT_DIR" && timeout 300 "$BUILD_DIR_ABS/bench_net_loadgen" \
    --port "$ROUTER_PORT" --requests "$REQUESTS")

echo "== net_smoke: SIGTERM drain (router first, then backends) =="
drain() {
  local name=$1 pid=$2
  kill -TERM "$pid"
  local status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "net_smoke: $name exited $status after SIGTERM (wanted clean drain)" >&2
    exit 1
  fi
  echo "$name drained, exit 0"
}
drain router "$ROUTER_PID"
drain backend0 "$B0_PID"
drain backend1 "$B1_PID"
PIDS=()

echo "== net_smoke: checking artifacts =="
for f in BENCH_net.json backend0_metrics.json backend1_metrics.json; do
  if [ ! -s "$OUT_DIR/$f" ]; then
    echo "net_smoke: missing artifact $OUT_DIR/$f" >&2
    exit 1
  fi
done
python3 - "$OUT_DIR/BENCH_net.json" "$REQUESTS" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
want = int(sys.argv[2])
assert doc["requests"] == want, f"requests {doc['requests']} != {want}"
assert doc["errors"] == 0, f"errors {doc['errors']} != 0"
assert doc["mismatches"] == 0, f"mismatches {doc['mismatches']} != 0"
assert doc["achieved_rps"] > 0, "achieved_rps not positive"
print(f"BENCH_net.json: {doc['requests']} requests, 0 errors, 0 mismatches, "
      f"wire p99 {doc['wire_p99_ms']:.3f} ms")
PY
echo "net_smoke: PASS"
