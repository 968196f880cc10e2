#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload corpus-sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's per-user
# config) goes under .bench_build in the current directory. Go telemetry
# is switched off there, so the go command starts no background process.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
printf 'off' > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
