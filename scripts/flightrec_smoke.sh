#!/usr/bin/env bash
# CI smoke for the black-box flight recorder: run the end-to-end drill
# (ph_stress --flightrec-smoke: a fail-point makes an engine think lane throw
# and the engine retires the lane, then a real watchdog stall verdict
# persists the event ring), then assert the dump file exists, parses as
# JSON, and holds the causal chain in order:
# failpoint_fire(think_throw) -> lane_quarantine -> watchdog_stall ->
# watchdog_report.
#
# usage: scripts/flightrec_smoke.sh [build-dir]   (default: build-release)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-release}"
STRESS="$BUILD/tools/ph_stress"
if [ ! -x "$STRESS" ]; then
  echo "flightrec_smoke: $STRESS missing (build the tree first)" >&2
  exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

out="$(PH_FLIGHTREC_DIR="$TMP" "$STRESS" --flightrec-smoke)"
echo "$out"
dump="${out#flightrec-smoke: dump }"
if [ ! -f "$dump" ]; then
  echo "flightrec_smoke: reported dump '$dump' does not exist" >&2
  exit 1
fi

python3 - "$dump" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as fh:
    doc = json.load(fh)  # must parse: the dump is a single JSON document

for key in ("reason", "pid", "total_events", "dropped_events", "events"):
    assert key in doc, f"dump missing key {key!r}"
assert doc["reason"] == "watchdog-stall", doc["reason"]
events = doc["events"]
assert events, "dump has no events"

def first_index(pred):
    return next((i for i, e in enumerate(events) if pred(e)), None)

fire = first_index(lambda e: e["kind"] == "failpoint_fire"
                   and e.get("a_name") == "think_throw")
quar = first_index(lambda e: e["kind"] == "lane_quarantine")
stall = first_index(lambda e: e["kind"] == "watchdog_stall")
report = first_index(lambda e: e["kind"] == "watchdog_report")
for name, idx in [("failpoint_fire", fire), ("lane_quarantine", quar),
                  ("watchdog_stall", stall), ("watchdog_report", report)]:
    assert idx is not None, f"dump missing {name} event"
assert fire < quar < stall < report, (
    f"causal order broken: fire@{fire} lane_quarantine@{quar} "
    f"stall@{stall} report@{report}")
print(f"flightrec_smoke: OK — {len(events)} events, causal chain "
      f"fire@{fire} < lane_quarantine@{quar} < stall@{stall} < report@{report}")
EOF
