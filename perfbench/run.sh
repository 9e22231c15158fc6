#!/usr/bin/env bash
# Build the benchmark from source and run it.  From the repository root:
#   bash perfbench/run.sh --workload suite|serve|split --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --smoke
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  for bin in "$HOME"/.opam/*/bin; do
    if [ -x "$bin/dune" ]; then PATH="$bin:$PATH"; fi
  done
fi
# The shared dune cache lives outside the checkout; keep the build inside it.
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
