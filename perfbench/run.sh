#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload replay-benign --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and all
# scratch files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
