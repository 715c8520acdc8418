#!/usr/bin/env bash
# Builds the system benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash sysbench/run.sh --workload large-batch-conv --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, module state, user
# config) stays under .bench_build in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off

go -C sysbench build -o "$build/sysbench" .
exec "$build/sysbench" "$@"
