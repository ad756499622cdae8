#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload update-rounds --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. Every build and run artefact (Go build
# cache, binary, durable peer databases, trace files) stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" GOPATH="$out/home/go" XDG_CONFIG_HOME="$out/home" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
