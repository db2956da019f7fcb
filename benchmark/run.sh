#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload sim-steady-24 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the traced runs' CPU profiles go under .bench_build there.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$out/rbbench" .)
exec "$out/rbbench" "$@"
