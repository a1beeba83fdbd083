#!/bin/sh
# Repo-wide hygiene gate, the stages CI runs: build, vet, format, lint,
# the full test suite under the race detector, every example, the
# ccrpbench module, and every fuzz target beyond its seeds (2 s each
# here, 5 s in CI). Run from the repository root (make check). Any
# failing stage aborts the run with exit code 1 and names itself, so CI
# logs and local runs point straight at the broken gate.
set -eu
# pipefail surfaces failures on the left side of pipes; it is not in
# POSIX sh everywhere, so probe for it instead of assuming bash.
(set -o pipefail 2>/dev/null) && set -o pipefail


cd "$(dirname "$0")/.."

# Pinned staticcheck version, run via `go run` so nothing is installed
# into the module. CI caches the module download; offline environments
# skip the stage (see below) rather than failing on a network error.
STATICCHECK=honnef.co/go/tools/cmd/staticcheck@2025.1.1

fail() {
	echo "check: FAILED at stage: $1" >&2
	exit 1
}

stage() {
	name=$1
	shift
	echo "== $name"
	"$@" || fail "$name"
}

stage "go build ./..." go build ./...
stage "go vet ./..." go vet ./...

echo "== gofmt -l"
badfmt=$(gofmt -l .) || fail "gofmt -l"
if [ -n "$badfmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$badfmt" >&2
	fail "gofmt -l"
fi

echo "== staticcheck ./..."
if go run "$STATICCHECK" -version >/dev/null 2>&1; then
	go run "$STATICCHECK" ./... || fail "staticcheck ./..."
else
	echo "staticcheck unavailable (offline? toolchain too old?); skipping"
fi

stage "go test -race ./..." go test -race ./...
# CI's smoke job runs every example; a non-zero exit fails the stage.
stage "examples" sh -c 'for d in examples/*/; do echo "-- $d"; go run "./$d" >/dev/null || exit 1; done'
# ccrpbench is its own module, so the root ./... never builds it; vet
# and test it against this tree so an API change cannot break it unseen.
stage "ccrpbench vet+test" sh -c 'cd ccrpbench && GOWORK=off go vet ./... && GOWORK=off go test ./...'
# CI's fuzz job; 2 s per target keeps the 27 targets near two minutes.
stage "make fuzz FUZZTIME=2s" make fuzz FUZZTIME=2s

echo "check: OK"
