#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the Go toolchain writes (build
# cache, telemetry) is kept inside the checkout too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd benchmark && go build -o "$root/.bench_build/znn-benchmark" .)
exec "$root/.bench_build/znn-benchmark" "$@"
