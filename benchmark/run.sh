#!/usr/bin/env bash
# Builds the harness and cmd/mrrun from source into .bench_build/ at the
# checkout root, then runs the harness with the arguments given. Everything
# the toolchain writes (build cache, telemetry) is kept inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/benchmark" .
go build -o "$build/mrrun" ./cmd/mrrun
exec "$build/benchmark" "$@"
