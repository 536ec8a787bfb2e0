#!/usr/bin/env bash
# Builds the benchmark and the solarschedd daemon from this checkout and
# runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload sim_warm --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(
  cd "$root/e2ebench"
  go build -o "$out/e2ebench" .
  go build -o "$out/solarschedd" solarsched/cmd/solarschedd
) >&2
exec "$out/e2ebench" "$@"
