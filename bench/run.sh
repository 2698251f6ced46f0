#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it
# from the checkout root, passing every argument through:
#
#   bash bench/run.sh --workload dict-go --seed 3 --seconds 35 --trace 0
#   bash bench/run.sh -seed 0 -out results/          # every workload
#   bash bench/run.sh compare A/results.json B/results.json
#
# Everything the Go toolchain and the benchmark write (build and module
# caches, binaries, scratch images) stays under .bench_build/ in the
# checkout, and no network or toolchain download is attempted.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go -C "$root/bench" build -buildvcs=false -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
