#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark. Build outputs, the
# Go caches and run scratch space stay under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
