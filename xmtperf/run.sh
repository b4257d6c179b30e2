#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash xmtperf/run.sh --workload sim-64k-dram --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary)
# stays under .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/xmtperf" build -o "$out/xmtperf" . >&2
exec "$out/xmtperf" "$@"
