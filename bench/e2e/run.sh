#!/bin/sh
# Build the end-to-end benchmark from source, then run it with the
# given arguments, from the repository root:
#   sh bench/e2e/run.sh --workload tune_par --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the result is the last line of stdout.
set -e
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ]; then
  echo "run.sh: no dune-project here: run it from a checkout of the repository" >&2
  exit 2
fi
# the dune cache lives outside the checkout; keep the build inside it
dune build --root . --cache=disabled --display=quiet bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
