#!/usr/bin/env bash
# Builds the verification benchmark from source, then runs it with the
# given arguments:
#
#   bash vbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build goes to _build/ and the benchmark's scratch files to
# .vbench_out/, both under the repository root.  The dune cache is off
# so that nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./vbench/main.exe 1>&2
exec ./_build/default/vbench/main.exe "$@"
