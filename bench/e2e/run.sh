#!/bin/sh
# Build msoc and the end-to-end bench from the source tree in the current
# directory, then run one workload.  Run it from the repository root:
#
#   sh bench/e2e/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Building first means a stale binary is never measured.  Build output
# goes to stderr; the last line of stdout is the bench's JSON result.
set -e
dune build --root . --cache=disabled -j 2 --display quiet \
  bin/msoc_cli.exe bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe \
  --msoc ./_build/default/bin/msoc_cli.exe "$@"
