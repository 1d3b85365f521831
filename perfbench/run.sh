#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload edge-mac --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go caches, the go command's temporary files and its
# config directory (where it keeps telemetry counters) stay under
# .bench_build/ in the checkout, and the user's Go settings are not read.
# The module has no external dependencies, so nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
