#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash tabench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and traced
# runs' span files go to $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd tabench && go build -o "$out/tabench" .) >&2
exec "$out/tabench" --trace-dir "$out" "$@"
