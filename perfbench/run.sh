#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload suite-rlpv --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every file the Go toolchain and the driver
# write goes under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -expect "$here/expect" -out "$out" "$@"
