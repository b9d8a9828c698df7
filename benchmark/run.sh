#!/usr/bin/env bash
# Builds the benchmark from source, then runs it from the repository
# root: `bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1`.
# Every argument goes to `main.exe run` (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe run "$@"
