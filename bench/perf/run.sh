#!/bin/sh
# Build the benchmark from source, then run it with the given arguments
# (see main.ml). Run from the repository root. The build writes only
# under _build: dune's shared cache is off and the compiler's temporary
# files go to _build/tmp.
set -e
mkdir -p _build/tmp
TMPDIR="$PWD/_build/tmp" DUNE_CACHE=disabled \
  dune build --root . --display quiet ./bench/perf/main.exe 1>&2
exec ./_build/default/bench/perf/main.exe "$@"
