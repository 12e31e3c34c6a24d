#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
# the command BENCHMARK.json names. Run it from the root of a checkout.
#
# The benchmark is a Go module of its own (benchmark/go.mod) that
# replaces github.com/minoskv/minos with the checkout around it, so the
# build fails, and this script with it, where that source is missing.
# Everything the build writes stays inside the checkout, under
# .bench_build/: the binary, Go's build cache and its module cache.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/minos-benchmark" .)
exec "$build/minos-benchmark" "$@"
