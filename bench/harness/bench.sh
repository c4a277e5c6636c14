#!/usr/bin/env bash
# Benchmark entry point (the command in BENCHMARK.json). Run from the
# root of the repository: it builds the server and the harness from the
# sources there, then runs one workload, e.g.
#
#   bash bench/harness/bench.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the JSON result; build output goes
# to standard error.
set -eu
dune build --root . ./bin/infoflow.exe ./bench/harness/harness.exe 1>&2
exec ./_build/default/bench/harness/harness.exe "$@"
