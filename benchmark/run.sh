#!/usr/bin/env bash
# Build the benchmark (the first run in a checkout compiles the library)
# and run one workload.  Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload model-zoo --seed 1 --seconds 20 --trace 0
#
# The release profile keeps compiler warnings advisory, so a warning in
# a later library change cannot stop a measurement.
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --profile release --display quiet --no-print-directory \
  -- ./benchmark/main.exe "$@"
