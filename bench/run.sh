#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags (see bench/README.md). Run it from the repository root.
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
