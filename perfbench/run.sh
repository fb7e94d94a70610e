#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload flood-walk --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary)
# stays in the build directory inside the checkout: $CARGO_TARGET_DIR when
# set, otherwise .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
