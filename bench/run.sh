#!/usr/bin/env bash
# Builds bench/affinitybench from this checkout's sources and runs it from
# the checkout root, passing every argument through, e.g.
#
#   bash bench/run.sh --workload warm-hit --seed 3 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build and module caches, temporary files, the
# binary, disk stores and traces. The build never uses the network.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"

(
	cd "$root/bench"
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/affinitybench" ./affinitybench
)

cd "$root"
exec env TMPDIR="$out/tmp" "$out/affinitybench" "$@"
