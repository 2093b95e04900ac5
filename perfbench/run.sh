#!/usr/bin/env bash
# Builds the benchmark harness from the sources in the current directory
# and runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload z-read --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's span files go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. The harness is a module of its own (perfbench/go.mod) that
# builds against the repository's packages through a replace directive;
# with no repository around it, the build fails and so does this script.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/go.mod here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/tmp"

# Offline and self-contained: the harness needs only the standard library
# and the repository's own packages. The go command keeps its telemetry
# counters under the user's config directory, so that moves in too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= GOENV=off XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && ${GO:-go} build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out" "$@"
