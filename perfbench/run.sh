#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Everything the build and the runs write stays under
# .bench_build at the checkout root (or $CARGO_TARGET_DIR when set):
# the Go build cache, the binary and the admit-write data directories.
#
#   bash perfbench/run.sh --workload sweep-paper --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -runs 10 -seconds 20
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" -dir "$out"
