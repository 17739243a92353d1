#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the go tool writes (build cache, module cache, its own config and
# telemetry) is kept under .bench_build in the checkout, next to the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C "$here" build -o "$build/stfw-bench" .
cd "$root"
exec "$build/stfw-bench" "$@"
