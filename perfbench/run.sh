#!/usr/bin/env bash
# Build the benchmark and the CLI from this checkout's sources, then run
# one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe ./bin/rotary_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
