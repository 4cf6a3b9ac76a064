#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes — build cache, binary,
# its own settings — stays under .bench_build/ in the checkout.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$bench_dir" -o "$build/fedbench" .
cd "$root"
exec "$build/fedbench" "$@"
