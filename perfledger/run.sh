#!/usr/bin/env bash
# Builds the performance ledger from source and runs it. Run from the
# repository root:
#
#   bash perfledger/run.sh --rate-a 3.5 --rate-b 14 --workload analyze-apps --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, span files and the fleet's scratch
# state go under $CARGO_TARGET_DIR (default .bench_build), inside the
# checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfledger/go.mod" ]; then
	echo "perfledger: run from the repository root (the ledger builds the repository's own packages)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-config"
# Keep the toolchain's caches, temporary files and local telemetry inside
# the build directory too.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/go-config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfledger" && go build -o "$build/perfledger" .) >&2
exec "$build/perfledger" "$@"
