#!/usr/bin/env bash
# reach.sh — fails when a function declared in a non-test file under internal/
# or kron/ is linked into no binary the repository builds, and
# scripts/reach.allow does not list it as a test oracle.
#
# Builds the mains under cmd/ and examples/, plus kronperf, with inlining off
# (-gcflags=all=-l, so a function inlined into its callers keeps its symbol),
# lists their text symbols with `go tool nm`, and hands them to the go/parser
# lister in tools/cmd/reach. That lister also fails on a stale allowlist entry:
# one now reached, no longer declared, or naming a test that does not exist.
#
#   ./scripts/reach.sh        (from anywhere; takes no arguments)
#
# The linker keeps every method whose name and signature match a method
# called through an interface, so "reached" is an upper bound on what runs.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cd "$root"
for dir in cmd/*/ examples/*/; do
	dir="${dir%/}"
	go build -buildvcs=false -gcflags=all=-l -o "$tmp/${dir//\//-}" "./$dir"
done
go -C kronperf build -buildvcs=false -gcflags=all=-l -o "$tmp/kronperf" .

for bin in "$tmp"/*; do
	go tool nm "$bin"
done | go -C tools run ./cmd/reach "$root" scripts/reach.allow
