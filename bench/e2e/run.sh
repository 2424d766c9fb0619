#!/bin/sh
# Build acqpd and the benchmark from this checkout, then run the
# benchmark with the given arguments (see bench/e2e/README.md). Run it
# from the root of the checkout.
set -eu
if [ ! -f dune-project ] || [ ! -f bench/e2e/dune ]; then
  echo "bench/e2e/run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi
dune build --root . --cache=disabled ./bin/acqpd.exe ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
