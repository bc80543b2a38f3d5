#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from, then runs it with the arguments given. Everything the Go
# toolchain writes (build cache, temporary files, its own usage counters,
# the binary) stays inside the checkout.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -C "$src" -o "$out/srpc-benchmark" .
exec "$out/srpc-benchmark" "$@"
