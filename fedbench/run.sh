#!/usr/bin/env bash
# Builds the federation benchmark from the checkout's sources and runs it.
# Usage: bash fedbench/run.sh --workload oltp|analytics|export --seed N --seconds S --trace 0|1
# Build outputs, the Go build cache and run directories stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/fedbench" && go build -o "$out/fedbench" .) >&2
exec "$out/fedbench" --dir "$out" "$@"
