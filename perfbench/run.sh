#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root
# of the repository:
#
#   bash perfbench/run.sh --workload dense --seed 1 --seconds 10 --trace 0
#
# Every build artifact (the Go build cache included) stays under
# $CARGO_TARGET_DIR (default .bench_build) so the run writes nothing outside
# the checkout. Build failures exit non-zero before any result is printed.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
