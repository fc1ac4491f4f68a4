#!/usr/bin/env bash
# Build the optimizer and the benchmark from source, then run the
# benchmark from the repository root:
#   bash perfbench/run.sh --workload cli_optimize --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet --profile dev \
  bin/sram_opt.exe perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --bin ./_build/default/bin/sram_opt.exe "$@"
