#!/bin/sh
# Builds the request-level benchmark of the /v1/jobs service from this
# checkout and runs it with the given arguments, e.g.
#
#   sh jobsbench/run.sh --workload kmeans-20k --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files, telemetry) stays under .bench_build/ in
# the current directory, and nothing is fetched from the network.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
(
	cd jobsbench
	HOME="$out" GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off \
		GOTOOLCHAIN=local GOWORK=off go build -buildvcs=false -o "$out/jobsbench" .
)
exec "$out/jobsbench" "$@"
