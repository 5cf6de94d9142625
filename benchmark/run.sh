#!/bin/sh
# Builds the benchmark harness from the checkout's sources and runs it with
# the arguments given:
#
#     sh benchmark/run.sh --workload rmt-fast --seed 1 --seconds 14 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write —
# Go build cache, the binary, cache directories and journals — stays inside
# the checkout (.bench_build/, .bench_work/), so it needs no HOME and leaves
# nothing behind elsewhere. In a directory without the repo's go.mod the
# build fails and the script exits non-zero before printing any result.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/druzhba-bench" ./benchmark
exec "$build/druzhba-bench" "$@"
