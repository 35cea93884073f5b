#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with the
# given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload eval-sim --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/scdbench.exe 1>&2
exec ./_build/default/perfbench/scdbench.exe "$@"
