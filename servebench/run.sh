#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload rm1-dense --seed 1 --seconds 56 --trace 0
#
# Build outputs (binary, Go build cache, temporary build files and Go's
# per-user config) stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
