#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (compiler cache and
# temporary files included, so nothing is written outside the checkout)
# and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C "$here" build -o "$build/xlbenchmark" .
exec "$build/xlbenchmark" "$@"
