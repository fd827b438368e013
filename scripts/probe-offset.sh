#!/usr/bin/env bash
# Prints where the benchmark harness built from a source tree puts the host
# probe's scan loop: the start address of (*hostProbe).sample modulo 64.
# The harness's host factor follows that alignment (EXPERIMENTS.md, "The
# host factor follows a loop's alignment"), so run this on both trees of a
# parent/change comparison before reading a timed pair: a pair whose
# offsets differ compares the loop's alignment, not the change.
#
# Usage: scripts/probe-offset.sh [tree]   (tree defaults to this checkout)
#
# The harness is built as bench/run.sh builds it, into a temporary
# directory that is removed afterwards.
set -euo pipefail
tree="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
GOTOOLCHAIN=local go build -C "$tree/bench" -o "$tmp/bench" .
addr="$(go tool objdump -s 'hostProbe..sample' "$tmp/bench" | awk 'NR == 2 { print $2 }')"
if [[ -z "$addr" ]]; then
	echo "probe-offset: no (*hostProbe).sample in the harness built from $tree" >&2
	exit 1
fi
echo "$tree: (*hostProbe).sample at $addr, offset $((addr % 64))"
