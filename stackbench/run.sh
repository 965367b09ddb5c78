#!/usr/bin/env bash
# Build the whole-stack benchmark from source and run one workload.
#
#   bash stackbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the repository. Workloads: steady-n64,
# recover-churn-n32, register-mix-n16, smr-reconf-n8. The build goes to
# ./_build (dune's shared cache is disabled, so nothing is written outside
# the checkout); its output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./stackbench/main.exe 1>&2
exec ./_build/default/stackbench/main.exe "$@"
