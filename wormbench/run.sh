#!/usr/bin/env bash
# Builds the wormlan benchmark from the checkout it sits in and runs it.
# Run from the checkout root:
#
#	bash wormbench/run.sh --workload fig10-torus --seed 1996 --seconds 25 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) lands in
# .bench_build at the checkout root, so the benchmark writes nowhere else.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/wormbench" && go build -o "$out/wormbench" .) >&2
# Keep heap pages the runtime frees mapped (MADV_FREE, not MADV_DONTNEED):
# on a VM that hands freed guest memory back to its host, every re-touched
# page would otherwise cost a host-side fault, charged to whichever point
# happened to touch it.
GODEBUG=madvdontneed=0 exec "$out/wormbench" "$@"
