#!/usr/bin/env bash
# Builds the perfbench binary from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload serve|scale|certify --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Everything the build and the runs
# leave behind (Go build cache, binary, results, traces) goes under
# $CARGO_TARGET_DIR when that is set, else under .bench_build/, so nothing is
# written outside the checkout.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/xdg-config"
export XDG_CACHE_HOME="$build/xdg-cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --root "$root" --out "$build" "$@"
