#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fast-golden --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch stores all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

bin=$out/perfbench
go -C "$root/perfbench" build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" --workdir "$out/tmp" "$@"
