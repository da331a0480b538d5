#!/usr/bin/env bash
# Builds the histload benchmark and runs it against this repository's
# cmd/histd. Everything the go command writes (build cache, temporary
# files, telemetry counters) and every binary stays in .bench_build/ at
# the repository root, and no module is downloaded.
#
#   bash bench/run.sh [histload flags]    e.g. -workload adk-sampler -seed 3 -trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/histload" ./histload)
cd "$root"
exec "$build/histload" "$@"
