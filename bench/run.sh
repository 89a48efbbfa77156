#!/usr/bin/env bash
# Builds the benchmark and the idaserver binary into .bench_build and runs
# the benchmark with the given arguments, for example:
#
#   bash bench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (the Go build cache, binaries, server stores, spans) stays under
# .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod || ! -d cmd/idaserver ]]; then
	echo "bench/run.sh: run from the repository root; go.mod, bench/go.mod and cmd/idaserver are needed" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/idaserver" ./cmd/idaserver
go -C bench build -o "$build/bin/bench" .

exec "$build/bin/bench" -server "$build/bin/idaserver" -workdir "$build/work" -spans "$build/spans.json" "$@"
