#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
#
# The Go build cache lives in .bench_build/ too, and module downloads are
# off: the benchmark needs nothing beyond this repository and the Go
# toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
