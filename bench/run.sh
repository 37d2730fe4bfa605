#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's own
# source and run it. Everything the toolchain and the benchmark write
# (build cache, binary, the deployments' stable storage) stays under
# .bench_build/ in the checkout. Arguments go to the benchmark unchanged.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/lcm-bench" ./bench
exec "$build/lcm-bench" -tmp "$build/tmp" "$@"
