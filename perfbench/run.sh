#!/usr/bin/env bash
# Build xicheck and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr; the last
# line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a checkout of the repository (no sources to build)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bin/xicheck.exe ./perfbench/xibench.exe >&2
# The client and the server it spawns share one CPU, the last one this
# process may use.  In a closed loop only one of them runs at a time, so
# the shared CPU costs nothing, and on a virtual machine a wake-up across
# CPUs costs a varying hypervisor delay that would swamp a 30 us request.
cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)
cpu=${cpus##*[,-]}
if [ -n "$cpu" ] && command -v taskset >/dev/null; then
  exec taskset -c "$cpu" ./_build/default/perfbench/xibench.exe "$@"
fi
exec ./_build/default/perfbench/xibench.exe "$@"
