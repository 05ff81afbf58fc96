#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload ingest-bulk --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
  echo "perfbench: $root is not a full checkout (no go.mod or internal/)" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
