#!/usr/bin/env bash
# Runs one benchmark workload from the root of a source checkout:
#
#   bash perfbench/run.sh --workload get-hot --seed 1 --seconds 10 --trace 0
#
# It builds cmd/loggen, cmd/train, cmd/serve and cmd/recommend from the
# checkout, then the end-to-end driver (--trace 0) or the traced per-layer
# harness (--trace 1), and runs it. Everything it builds or writes stays
# under .bench_build (or $CARGO_TARGET_DIR) in the checkout, including the
# Go build cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ ${args[i]} == --trace ]]; then trace=${args[i + 1]:-0}; fi
done

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
mkdir -p "$out/bin" "$out/work" "$XDG_CONFIG_HOME/go/telemetry"
# Telemetry off: otherwise each go command may fork a detached upload
# process that outlives the run.
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/loggen ./cmd/train ./cmd/serve ./cmd/recommend
if [[ $trace == 1 ]]; then
	(cd perfbench/layers && go build -o "$out/bin/layers" .)
	exec "$out/bin/layers" -bin "$out/bin" -work "$out/work" "$@"
fi
(cd perfbench && go build -o "$out/bin/e2e" ./cmd/e2e)
exec "$out/bin/e2e" -bin "$out/bin" -work "$out/work" "$@"
