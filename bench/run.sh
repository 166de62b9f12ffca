#!/usr/bin/env bash
# Builds fragbench from this checkout's sources and runs it from the
# repository root with the given arguments, e.g.
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and temporary build files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/fragbench" ./fragbench)
# Flush what the build and earlier runs left dirty, so that it is not
# written back during the measurement.
sync
exec "$build/fragbench" "$@"
