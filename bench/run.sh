#!/usr/bin/env bash
# Builds o2perf from the checkout this script sits in and runs it with the
# given arguments, from the checkout's root. The build cache, temporary
# files and the binary stay under .bench_build, and the go command never
# reaches for the network, so the benchmark reads and writes only inside
# the checkout.
#
#   bash bench/run.sh --workload soak-amd16 --seed 1 --seconds 25 --trace 0
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C bench build -o "$build/o2perf" ./cmd/o2perf
exec "$build/o2perf" "$@"
