#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it
# with the given arguments, e.g.
#
#   bash sidperf/run.sh --workload grid_100x100 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product (binary, Go build
# cache) goes under .bench_build/ in that root, so nothing outside the
# checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# A hermetic build: no user go env file, no toolchain download, no flags.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go -C sidperf build -o "$out/sidperf" .
exec "$out/sidperf" "$@"
