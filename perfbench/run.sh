#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload flow --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# temporary file go to .bench_build/ under the current directory, so nothing
# is written outside the checkout. The build fails, and the script exits
# non-zero without printing a result, when the repository's sources are not
# next to this directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
