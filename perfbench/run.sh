#!/usr/bin/env bash
# Builds the benchmark harness, its calibration process and the cinnamon
# CLI from the checkout's sources, then runs the harness with the given
# arguments:
#
#   bash perfbench/run.sh --workload cold|hot|fleet --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Everything it builds or writes stays
# under .bench_build/ in that checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cinnamon" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, cmd/cinnamon and perfbench/ are needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off

# -p 2 keeps the build's memory small on a shared machine.
(cd "$root" && go build -p 2 -o "$out/bin/cinnamon" ./cmd/cinnamon) >&2
(cd "$root/perfbench" && go build -p 2 -o "$out/bin/perfbench" . && go build -p 2 -o "$out/bin/calproc" ./calproc) >&2

exec "$out/bin/perfbench" --cli "$out/bin/cinnamon" --calproc "$out/bin/calproc" "$@"
