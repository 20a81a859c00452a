#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash e2ebench/run.sh --workload proxy_forward --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
src="$root/e2ebench"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$src" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
