#!/usr/bin/env bash
# Builds bcc and the benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload batch|serve|drift --seed N --seconds S --trace 0|1
# Run it from the root of a checkout.  Build output goes to stderr; the
# last line of stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a bcc checkout (dune-project, lib/ and bin/ missing)" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
unset BCC_JOBS BCC_FAULTS

dune build --root . ./perfbench/main.exe ./bin/bccd.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
