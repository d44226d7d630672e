#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source with
# the Go toolchain, keeping every build artefact inside the checkout
# (.bench_build/), then run it with the driver's arguments.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod and internal/ are not here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/rtrbench" ./bench >&2
exec "$build/rtrbench" "$@"
