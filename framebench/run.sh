#!/usr/bin/env bash
# Builds the frame benchmark from the checkout's sources and runs one
# workload, e.g. from the repository root:
#
#   bash framebench/run.sh --workload corridor-wan --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and span dumps stay under .bench_build/ in
# the working directory. The last line of standard output is the result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/framebench" && go build -o "$out/bin/framebench" .)
exec "$out/bin/framebench" "$@"
