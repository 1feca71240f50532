#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write — Go build cache, binary, temp
# files — stays under .bench_build in the checkout that holds this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"
go -C "$here" build -o "$build/vcmt-bench" .
exec "$build/vcmt-bench" "$@"
