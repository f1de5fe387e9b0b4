#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Everything the build writes - the Go build cache, its
# temp files, the binary - stays under .bench_build/ in the checkout, and
# so do the on-disk workloads' data directories (the program's -dir
# default). The first run in a checkout compiles the standard library
# into the fresh cache; later runs reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/home"

# HOME and XDG_CONFIG_HOME move the go command's own bookkeeping
# (telemetry counters, default cache locations) into the checkout too.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	go build -o "$build/odbis-bench" ./benchmark

exec "$build/odbis-bench" "$@"
