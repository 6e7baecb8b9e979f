#!/usr/bin/env bash
# Runs redibench from the repository root with the Go build cache and
# temporary files kept inside the checkout, under .bench_build/. Every
# argument is passed on, e.g.
#   bash cmd/redibench/run.sh --workload serve-query --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [[ ! -f go.mod ]]; then
	echo "redibench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
exec go run ./cmd/redibench "$@"
