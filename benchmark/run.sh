#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the checkout's root. Everything the Go toolchain
# writes — build cache, temporary files, module cache, its own config —
# goes under .bench_build/ in the checkout, never the home directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
		go build -o "$build/benchmark" .
)
cd "$root"
# Result files record the revision measured; a checkout that is not a git
# repository records "unknown".
BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)" exec "$build/benchmark" "$@"
