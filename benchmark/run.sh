#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with
# the given arguments. Everything the build writes, the Go build cache
# included, stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod in $root: the benchmark builds the system from source and needs the repository around it" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -buildvcs=false -o "$root/.bench_build/clash-benchmark" .
exec "$root/.bench_build/clash-benchmark" "$@"
