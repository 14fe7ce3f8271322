#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash oebench/run.sh --workload embed-sync --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary are kept under .bench_build/ in the
# checkout, so the build reads and writes nothing else outside the Go
# toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/oebench" && go build -o "$out/oebench" .)
exec "$out/oebench" "$@"
