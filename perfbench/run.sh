#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it.
#
#   bash perfbench/run.sh --workload online-cold --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, journals, span files) goes under
# .bench_build/ in the current directory; nothing is read or written
# elsewhere except the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
# HOME and the XDG directories point inside the checkout too, so nothing the
# toolchain keeps per user (telemetry counters, config) lands outside it.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOPROXY=off \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
