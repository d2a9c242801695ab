#!/usr/bin/env bash
# Builds the benchmark and driserve from the sources of the checkout it is
# run from, then runs one workload:
#
#   bash perfbench/run.sh --workload fig3-warm --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload serve-miss --report 5   # steadiness report
#
# Everything the build and the runs leave behind goes under .bench_build/ in
# the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/driserve" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/driserve and perfbench/ are required)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches and config inside the checkout and offline.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
go build -o "$out/driserve" ./cmd/driserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -driserve "$out/driserve" -workdir "$out/runs" "$@"
