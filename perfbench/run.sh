#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The build writes only under .bench_build in
# the current directory (Go's build cache and telemetry included).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
	export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
