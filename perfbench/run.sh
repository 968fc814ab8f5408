#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the perfbench binary, e.g.
#   bash perfbench/run.sh --workload mix-cold --seed 1 --seconds 10 --trace 0
# Everything built or written lands in .bench_build/ (the Go build cache
# and the go command's config and telemetry directory too), so a run reads
# and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
