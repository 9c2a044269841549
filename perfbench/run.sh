#!/usr/bin/env bash
# Builds the planning server and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload miss_mix --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result. Everything the build and the run write stays in the working
# directory (_build/ and .perfbench/).
set -eu

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found" >&2
  exit 2
fi
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi

mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
export XDG_CACHE_HOME="$PWD/.perfbench/cache"
export DUNE_CACHE=disabled
FUSECU_DOMAINS="$(nproc)"
export FUSECU_DOMAINS

dune build --root . --display quiet ./bin/fusecu_opt.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
