#!/usr/bin/env bash
# Builds edbpd and the edbpbench program from the checkout this script sits
# in, then runs one workload. Every build artifact and temporary file stays
# under the checkout's .bench_build directory (or $CARGO_TARGET_DIR when set).
#
#   bash edbpbench/run.sh --workload sim-rfhome --seed 1 --seconds 25 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/edbpd" ]; then
	echo "edbpbench: no edbp source tree at $root" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root" && go build -o "$out/edbpd" ./cmd/edbpd) >&2
(cd "$here" && go build -o "$out/edbpbench" .) >&2

cd "$root"
exec "$out/edbpbench" -edbpd "$out/edbpd" -tmp "$out/tmp" "$@"
