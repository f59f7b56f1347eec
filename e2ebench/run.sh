#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through (see README.md). Run from the repository root:
#
#   bash e2ebench/run.sh --workload fig8-batch --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so the
# benchmark reads and writes nothing outside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --out "$out" "$@"
