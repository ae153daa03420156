#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload dense-suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
