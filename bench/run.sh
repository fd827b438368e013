#!/usr/bin/env bash
# Builds the harness from source into bench/out/ (build and module caches
# included, so nothing is written outside the checkout and nothing outside
# bench/out/ is left behind) and runs it from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
