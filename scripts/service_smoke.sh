#!/usr/bin/env bash
# End-to-end crash smoke for the scheduler service (phd): start the daemon,
# drive it with ph_loadgen under tenant skew, kill -9 mid-flight, restart on
# the same state dir, drain the survivor, and differentially check the two
# runs' ledgers — every delivered job must have been scheduled, nothing in
# the committed set may vanish or double-deliver, cancels and the in-flight
# reply-loss window are honoured as at-most-once.
#
# usage: scripts/service_smoke.sh [build-dir]   (default: build-release)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-release}"
PHD="$BUILD/tools/phd"
LOADGEN="$BUILD/tools/ph_loadgen"
for bin in "$PHD" "$LOADGEN"; do
  if [ ! -x "$bin" ]; then
    echo "service_smoke: $bin missing (build the tree first)" >&2
    exit 2
  fi
done

TMP="$(mktemp -d)"
PHD_PID=""
cleanup() {
  [ -n "$PHD_PID" ] && kill -9 "$PHD_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

PORT=$((20000 + RANDOM % 20000))
STATE="$TMP/state"

start_phd() {
  # Watermark + admit rate sized well below the offered load so the
  # admission gate genuinely engages (phase 1 asserts shed > 0).
  "$PHD" --dir "$STATE" --port "$PORT" \
    --overload-watermark 1024 --max-backlog 65536 \
    --admit-rate 30000 > "$TMP/phd_$1.log" 2>&1 &
  PHD_PID=$!
  # Wait for the listen line (the daemon prints it once bound).
  for _ in $(seq 1 100); do
    grep -q "listening" "$TMP/phd_$1.log" 2>/dev/null && return 0
    kill -0 "$PHD_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "service_smoke: phd ($1) failed to start" >&2
  cat "$TMP/phd_$1.log" >&2
  exit 1
}

echo "service_smoke: phase 1 — load + kill -9"
start_phd run1
"$LOADGEN" --port "$PORT" --tenants 64 --zipf 1.1 --rate 120000 \
  --seconds 4 --cancel-frac 0.05 --seed 7 --json \
  --ledger "$TMP/ledger1" > "$TMP/loadgen1.json"
cat "$TMP/loadgen1.json"
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["shed"] > 0, "overload never engaged (shed == 0)"
assert doc["acked"] > 0, "nothing was admitted"
' "$TMP/loadgen1.json"
kill -9 "$PHD_PID"
wait "$PHD_PID" 2>/dev/null || true
PHD_PID=""

echo "service_smoke: phase 2 — restart on the same WAL, drain, shutdown"
start_phd run2
grep -E "recovered" "$TMP/phd_run2.log" || true
"$LOADGEN" --port "$PORT" --tenants 64 --seed 8 --json --verify --shutdown \
  --ledger "$TMP/ledger2" > "$TMP/loadgen2.json"
cat "$TMP/loadgen2.json"
wait "$PHD_PID" 2>/dev/null || true
PHD_PID=""
grep -q '"server_alive": *true' "$TMP/loadgen2.json" || {
  echo "service_smoke: survivor daemon died during drain" >&2
  exit 1
}

echo "service_smoke: phase 3 — differential ledger check"
python3 - "$TMP/ledger1" "$TMP/ledger2" <<'EOF'
import sys
from collections import Counter

# Ledger grammar (one event per line):
#   S tenant id deadline   acked schedule (durably committed by the server)
#   C tenant id            cancel SENT (may or may not have landed)
#   D tenant id            delivery observed by the client
#   U tenant id            sent but never acked (durability unknown)
#   W outstanding batch    poll replies lost at exit x max jobs per reply
sched, cancelled, unacked = set(), set(), set()
delivered = Counter()
window = 0
for path in sys.argv[1:3]:
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            tag = parts[0]
            key = (int(parts[1]), int(parts[2])) if tag in "SCDU" else None
            if tag == "S":
                sched.add(key)
            elif tag == "C":
                cancelled.add(key)
            elif tag == "D":
                delivered[key] += 1
            elif tag == "U":
                unacked.add(key)
            elif tag == "W":
                window += int(parts[1]) * int(parts[2])

known = sched | unacked
fabricated = [k for k in delivered if k not in known]
assert not fabricated, f"delivered jobs never scheduled: {fabricated[:5]}"

doubles = [k for k, n in delivered.items() if n > 1]
assert not doubles, f"jobs delivered more than once: {doubles[:5]}"

# Every acked, uncancelled job must be delivered exactly once across both
# runs — except up to `window` jobs whose delivery reply was in flight when
# the daemon was killed (at-most-once toward the client, never the WAL).
must = {k for k in sched if k not in cancelled}
missing = [k for k in must if delivered[k] == 0]
assert len(missing) <= window, (
    f"{len(missing)} committed jobs lost (> reply-loss window {window}): "
    f"{missing[:5]}")

print(f"service_smoke: ledger OK — {len(sched)} acked, "
      f"{len(cancelled)} cancels, {sum(delivered.values())} delivered, "
      f"{len(missing)} in reply-loss window (bound {window}), "
      f"{len(unacked)} unacked")
EOF

echo "service_smoke: PASS"
