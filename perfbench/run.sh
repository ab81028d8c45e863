#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. The build goes to _build; the dune
# cache is off so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
