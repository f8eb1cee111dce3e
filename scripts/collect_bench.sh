#!/usr/bin/env bash
# Collects the bench suite's machine-readable output into one trajectory
# file, BENCH_pr<N>.json, at the repo root — automating what used to be a
# manual step (ROADMAP: "bench trajectory files are still produced
# manually"). Each bench binary is run once with --json; the per-binary
# documents (bench scalars + merged telemetry) are merged keyed by binary
# name, so successive PRs' files diff cleanly.
#
# usage: scripts/collect_bench.sh <pr-number> [build-dir]
#   <pr-number>  suffix of the output file, e.g. 3 -> BENCH_pr3.json
#   [build-dir]  build tree containing bench/ (default: build)
#
# environment:
#   BENCH_ONLY=bench_svc,bench_hold       comma-separated subset to run
set -euo pipefail

PR="${1:?usage: collect_bench.sh <pr-number> [build-dir]}"
BUILD="${2:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH_DIR="$ROOT/$BUILD/bench"
if [ ! -d "$BENCH_DIR" ]; then
  echo "collect_bench: no such directory $BENCH_DIR (build the tree first)" >&2
  exit 1
fi

OUT="$ROOT/BENCH_pr${PR}.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

only="${BENCH_ONLY:-}"
ran=0
for bin in "$BENCH_DIR"/bench_*; do
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  name="$(basename "$bin")"
  if [ -n "$only" ]; then
    case ",$only," in
      *",$name,"*) ;;
      *) continue ;;
    esac
  fi
  echo "collect_bench: running $name"
  "$bin" --json "$TMP/$name.json" > "$TMP/$name.out"
  ran=$((ran + 1))
done
if [ "$ran" -eq 0 ]; then
  echo "collect_bench: no bench binaries matched (BENCH_ONLY=$only)" >&2
  exit 1
fi

python3 - "$PR" "$TMP" "$OUT" <<'EOF'
import json
import os
import sys

pr, tmp, out = sys.argv[1], sys.argv[2], sys.argv[3]
benches = {}
for f in sorted(os.listdir(tmp)):
    if f.endswith(".json"):
        with open(os.path.join(tmp, f)) as fh:
            benches[f[:-5]] = json.load(fh)
doc = {"pr": int(pr), "benches": benches}
with open(out, "w") as fh:
    json.dump(doc, fh, indent=1, sort_keys=True)
    fh.write("\n")
print(f"collect_bench: wrote {out} ({len(benches)} benches)")
EOF
