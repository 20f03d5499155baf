#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see README.md).  Build output goes to stderr, so the
# last line of stdout is the benchmark's own.  The dune cache is off and
# the compilers' temporary files go under _build, so nothing is written
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$root/_build/tmp"
TMPDIR="$root/_build/tmp" DUNE_CACHE=disabled \
  dune build --root "$root" --display quiet ./benchmark/run.exe 1>&2
exec "$root/_build/default/benchmark/run.exe" "$@"
