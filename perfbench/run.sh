#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory, the Go build cache included.
set -euo pipefail
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOTMPDIR=
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
