#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# and run it with the given arguments, from the root of the checkout.
# Everything the build writes (compiler cache, module cache, the go
# command's own state under $HOME) is kept in .bench_build there.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build"
env HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= \
	go build -C bench -o "$build/adaptdb-bench" .
exec "$build/adaptdb-bench" "$@"
