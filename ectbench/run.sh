#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it.
#
#   bash ectbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line on stdout is the
# benchmark's JSON result. The dune cache is off and the compilers'
# temporary files go under _build, so nothing is written outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p _build/tmp
TMPDIR="$root/_build/tmp" DUNE_CACHE=disabled \
  dune build --root . --display quiet ./ectbench/main.exe 1>&2
exec ./_build/default/ectbench/main.exe "$@"
