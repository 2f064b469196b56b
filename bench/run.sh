#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh                      # all workloads, 5 rounds
#   bash bench/run.sh -trace 1             # ... plus a traced round
#   bash bench/run.sh -sets 2              # calibration: two sets, agreement
#   bash bench/run.sh --workload fig8a --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binary, profiles, spans,
# temporary stores) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f bench/go.mod ]]; then
	echo "run.sh: run from the repository root (bench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"

# A private, offline toolchain environment: no downloads, no writes to the
# user's Go caches or config, no cgo (the benchmark is pure Go).
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
export CGO_ENABLED=0

go build -C bench -o "$out/ecgridbench" .
exec "$out/ecgridbench" -root . "$@"
