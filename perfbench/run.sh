#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
#
#   bash perfbench/run.sh --workload engine-local --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files stay under
# .bench_build/ in the checkout. The toolchain runs offline (no module
# downloads, no toolchain switch).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
