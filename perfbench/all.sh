#!/usr/bin/env bash
# Print every end-to-end metric for every workload, then the traced
# per-layer split. Run from the repository root:
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-0}"
seconds="${2:-40}"
for trace in 0 1; do
  for workload in default stream20 prepend; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
  done
done
