#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload fig12 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the Go config directory and the
# traced run's spans all live under .bench_build/, so a run reads and
# writes only inside the checkout (apart from the Go toolchain itself).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
