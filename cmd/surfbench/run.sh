#!/usr/bin/env bash
# Builds surfbench from source into .bench_build/ at the checkout root
# and runs it there with the given flags, for example:
#
#   bash cmd/surfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# The Go build cache lives under .bench_build/ too, so a run reads and
# writes nothing outside the checkout. surfbench is its own module (it
# replaces surfcomm with ../..), which keeps it out of the repository's
# `go build ./...` and `go test ./...`.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/surfbench build -o "$out/bin/surfbench" .
exec "$out/bin/surfbench" "$@"
