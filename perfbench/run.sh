#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload write-paced --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every build artifact and cache stays under
# .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS= XDG_CONFIG_HOME="$build/config" HOME="$build/home"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
