#!/usr/bin/env bash
# Builds cmd/gbcbench from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash cmd/gbcbench/run.sh --workload serve-reuse --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary build files and the binary all live under
# .bench_build/ in the current directory, so a run writes nothing outside
# the checkout it runs in.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$root/cmd/gbcbench" && go build -o "$build/gbcbench" .) >&2
exec "$build/gbcbench" -workdir "$build" "$@"
