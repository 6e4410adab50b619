#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash e2ebench/run.sh --workload verify-adhoc --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and span dumps stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
