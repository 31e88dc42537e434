#!/usr/bin/env bash
# Build the benchmark from source, then run it from the repository root:
#   bash perfbench/run.sh --workload module-bugs --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
# the OCaml toolchain lives in an opam switch; load it when not on PATH
command -v dune >/dev/null || eval "$(opam env --readonly)"
# keep every file the build and the run write inside the checkout
export DUNE_CACHE=disabled
mkdir -p .perfbench_out/tmp
export TMPDIR="$PWD/.perfbench_out/tmp"
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
