#!/usr/bin/env bash
# Builds the clrdse end-to-end benchmark from this checkout's sources
# and runs one workload:
#
#   bash clrbench/run.sh --workload serve-json --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (Go build
# cache, binary, span dumps) lands under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout. The build fails, and the script
# exits non-zero without printing a result, when the repository's
# sources are missing.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/xdg"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomod
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/xdg
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/clrbench" && go build -o "$build/clrbench" .) >&2
exec "$build/clrbench" --out-dir "$build" "$@"
