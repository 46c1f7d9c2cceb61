#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs it
# with the given arguments, for example:
#
#   bash perfbench/run.sh --workload http-head --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
