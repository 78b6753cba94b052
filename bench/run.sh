#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source inside
# the checkout (cache, module path and temp files under .bench_build, so
# nothing outside the checkout is written) and runs it from the checkout
# root with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/wspeer-bench" .)
cd "$root"
exec "$build/wspeer-bench" "$@"
