#!/usr/bin/env bash
# Builds the simulator benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload rubis-scan-evict --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache and the toolchain's own state
# stay under the build directory: $CARGO_TARGET_DIR if set, otherwise
# .bench_build, relative to the repository root.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

# The official Go distribution installs to /usr/local/go.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
