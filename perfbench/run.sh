#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ (the Go build cache included).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# The go command's own config and telemetry files follow XDG_CONFIG_HOME.
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && XDG_CONFIG_HOME="$root/.bench_build/config" go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
