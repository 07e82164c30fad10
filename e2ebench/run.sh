#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given flags, e.g.
#
#   bash e2ebench/run.sh --workload batch-localize --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Every build and run artifact
# (Go build cache, temporary build files, Go's user configuration and
# telemetry, the binary, run records and spans) stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	go build -o "$out/bin/e2ebench" ./e2ebench >&2
exec "$out/bin/e2ebench" "$@"
