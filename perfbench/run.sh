#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload serve_read --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch data all go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

bench=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C "$bench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
