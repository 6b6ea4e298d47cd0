#!/usr/bin/env bash
# Builds the SCADS end-to-end benchmark from the source tree it sits in
# and runs it with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload social-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, node
# data directories, span dumps) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go build -C "$root/benchmark" -o "$out/scads-benchmark" .
exec "$out/scads-benchmark" -work "$out" "$@"
