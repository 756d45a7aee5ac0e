#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload fig6-acb --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache and config, binary, run state,
# traces) stays under .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
