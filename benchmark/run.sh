#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload shipped-write --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the binary, the
# databases, the result records and the traces all live under the build
# directory, $CARGO_TARGET_DIR when set and .bench_build otherwise, so
# the run writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" # the go command's telemetry lives under the config dir
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" --out "$build" "$@"
