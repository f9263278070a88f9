#!/usr/bin/env bash
# Build madql and madbench from source in this checkout, then make one
# benchmark run.  Run from the root of the checkout:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet \
  bin/madql.exe bench/e2e/madbench.exe 1>&2
exec ./_build/default/bench/e2e/madbench.exe --madql ./_build/default/bin/madql.exe "$@"
