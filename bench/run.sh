#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build
# bench/ from source into .bench_build/ at the repository root, then run
# it with the driver's arguments. Everything the toolchain writes —
# build cache, temp files, its own config — is kept under .bench_build/,
# and everything the benchmark writes under bench/out/.
#
#   bash bench/run.sh --workload farm-rr --seed 3 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
bin="$build/holdcsim-bench"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$here" -o "$bin" .
exec "$bin" -out "$here/out" "$@"
