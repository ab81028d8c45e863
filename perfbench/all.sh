#!/usr/bin/env bash
# Run every workload once, each in its own process, and print each
# report in turn:
#
#   bash perfbench/all.sh [--seed N] [--seconds S] [--trace 0|1]
#
# Exits non-zero when any workload's output check fails.
set -uo pipefail
cd "$(dirname "$0")/.."
seed=1 seconds=20 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    *) echo "usage: all.sh [--seed N] [--seconds S] [--trace 0|1]" >&2; exit 2 ;;
  esac
  shift 2
done
status=0
for w in bulk stream author join; do
  bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" || status=1
done
exit $status
