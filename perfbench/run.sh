#!/usr/bin/env bash
# Builds the end-to-end benchmark and the fleetd daemon from this
# checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --workload all --steady 5 --seconds 10
#
# Everything the build and the runs write stays under .bench_build/ at
# the root of the checkout (Go build cache, binaries, fleetd state).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/fleetd" cbtc/cmd/fleetd
cd "$root"
exec "$out/perfbench" --build-dir "$out" "$@"
