#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout, then runs it.
#   bash mdbench/run.sh --workload exec-square --seed 1 --seconds 30 --trace 0
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./mdbench/main.exe 1>&2
exec ./_build/default/mdbench/main.exe "$@"
