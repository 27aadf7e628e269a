#!/usr/bin/env bash
# Builds the SXNM benchmark harness and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload movies-flat --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 25
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory, including the Go build cache, GOPATH and the Go
# toolchain's own configuration and telemetry files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/sxnm ] || [ ! -d cmd/sxnmd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sxnm, cmd/sxnmd and perfbench/ are required)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$PWD" "$@"
