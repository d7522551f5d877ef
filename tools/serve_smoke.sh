#!/usr/bin/env bash
# Tier-1 smoke test for the serve daemon (docs/serve.md): boot it on an
# ephemeral port, run one real generate job and one `range` window
# through the `request` verb, scrape the metrics endpoint, then shut it
# down in-band and require a clean exit. A hard wall-clock timeout guards every step — a wedged daemon
# must fail the tier, not hang it.
#
#   tools/serve_smoke.sh [path/to/dbsynthpp]

set -euo pipefail

BIN="${1:-./build/tools/dbsynthpp}"
TIMEOUT_BIN="${TIMEOUT_BIN:-timeout}"
STEP_TIMEOUT="${SERVE_SMOKE_TIMEOUT:-60}"

if [[ ! -x "$BIN" ]]; then
  echo "serve_smoke: binary not found: $BIN" >&2
  exit 2
fi

WORK_DIR="$(mktemp -d /tmp/serve_smoke.XXXXXX)"
PORT_FILE="$WORK_DIR/port"
SERVE_LOG="$WORK_DIR/serve.log"
SERVE_PID=""

cleanup() {
  # Belt and braces: the happy path ends the daemon via the in-band
  # shutdown op; this only fires if a step failed mid-way.
  if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

req() { "$TIMEOUT_BIN" "$STEP_TIMEOUT" "$BIN" request --port-file "$PORT_FILE" "$@"; }

# The daemon blocks until shutdown, so the whole process lives under one
# watchdog; --port-file publishes the ephemeral port once it listens.
"$TIMEOUT_BIN" $((STEP_TIMEOUT * 3)) \
  "$BIN" serve --port 0 --port-file "$PORT_FILE" --max-jobs 2 \
  >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve_smoke: daemon died during startup" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -s "$PORT_FILE" ]] || { echo "serve_smoke: daemon never published a port" >&2; exit 1; }

# The port file appearing only proves bind(); poll a ping until the
# accept loop actually answers so the first real request cannot race
# daemon startup.
READY=0
for _ in $(seq 1 50); do
  if req --op ping 2>/dev/null | grep -q '"status":"ok"'; then
    READY=1
    break
  fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve_smoke: daemon died before answering ping" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  sleep 0.1
done
[[ "$READY" == 1 ]] || { echo "serve_smoke: daemon never answered ping" >&2; exit 1; }
echo "serve_smoke: daemon up on port $(cat "$PORT_FILE")"

JOB_OUT="$(req --model tpch --sf 0.001 --digests)"
echo "$JOB_OUT" | grep -q "rows" || { echo "serve_smoke: job produced no rows: $JOB_OUT" >&2; exit 1; }
echo "$JOB_OUT" | grep -q "lineitem" || { echo "serve_smoke: job digests missing lineitem" >&2; exit 1; }

# A range window over the daemon: row count, digest trailer, and payload
# bytes identical to the same rows of a local `generate`.
mkdir "$WORK_DIR/range"
RANGE_OUT="$(req --op range --model tpch --sf 0.01 --table orders \
  --first-row 0 --row-count 100 --digests --out "$WORK_DIR/range")"
echo "$RANGE_OUT" | grep -q "ok: 100 rows" \
  || { echo "serve_smoke: range did not ship 100 rows: $RANGE_OUT" >&2; exit 1; }
echo "$RANGE_OUT" | grep -Eq "orders +100 rows +digest=[0-9a-f]{32}" \
  || { echo "serve_smoke: range digest line missing: $RANGE_OUT" >&2; exit 1; }
"$TIMEOUT_BIN" "$STEP_TIMEOUT" "$BIN" generate --model tpch --sf 0.01 \
  --out "$WORK_DIR/local" >/dev/null
head -n 100 "$WORK_DIR/local/orders.csv" | cmp -s - "$WORK_DIR/range/orders.csv" \
  || { echo "serve_smoke: range payload differs from local generate" >&2; exit 1; }

METRICS_OUT="$(req --op metrics)"
echo "$METRICS_OUT" | grep -q '"jobs_completed":2' \
  || { echo "serve_smoke: metrics did not record both jobs: $METRICS_OUT" >&2; exit 1; }
echo "$METRICS_OUT" | grep -q '"schema_version":2' \
  || { echo "serve_smoke: metrics missing embedded schema-v2 report" >&2; exit 1; }

req --op shutdown >/dev/null
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
SERVE_PID=""
if [[ "$SERVE_RC" != 0 ]]; then
  echo "serve_smoke: daemon exited with $SERVE_RC" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi
grep -q "shut down cleanly" "$SERVE_LOG" \
  || { echo "serve_smoke: daemon did not report a clean shutdown" >&2; exit 1; }

echo "serve_smoke: ok (job + range + metrics + clean shutdown)"
