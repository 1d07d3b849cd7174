#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash bench/run.sh --workload pair-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# artifact stores the runs create all stay under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd bench && go build -o "$out/ccsbench" .)
exec "$out/ccsbench" "$@"
