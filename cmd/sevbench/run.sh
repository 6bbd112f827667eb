#!/usr/bin/env bash
# The command BENCHMARK.json names: build sevbench from source inside the
# checkout, then run one workload. Everything the build and the run write
# — Go's build cache, the binary, temp dirs — stays under .bench_build in
# the checkout. Run from the repository root:
#
#   bash cmd/sevbench/run.sh --workload paper_study --seed 7 --seconds 25 --trace 0
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "sevbench: run from the root of a sevsim checkout (go.mod and internal/ not found in $root)" >&2
	exit 2
fi
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"

# go build is a no-op when nothing changed; the first call in a checkout
# compiles the module (and the standard library into the private cache).
go build -o "$build/sevbench" ./cmd/sevbench
exec "$build/sevbench" "$@"
