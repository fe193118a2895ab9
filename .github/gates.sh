#!/usr/bin/env bash
# gates.sh fast
#
# Runs, from the repo root, the gates that need no network and finish
# in a few minutes, and stops at the first one that fails:
#
#   tier-1        go build ./... && go test ./...
#   vet           go vet ./...
#   gofmt         gofmt -l . lists no file
#   imports       the fuzz-smoke job's guards: no encoding/gob or
#                 compress/flate in the module or beneath the codec and
#                 persistence packages
#   perfbench     go -C perfbench test . (the benchmark's smoke test;
#                 perfbench/ is a module of its own, so tier-1 skips it)
#
# `full` (race, fuzz smoke, coverage floor, and the convergence gate:
# `capes-bench -experiment convergence` checked by convergence-gate.sh)
# is not written yet; ROADMAP.md item 11 has its list.
set -euo pipefail

mode="${1:-fast}"
if [ "$mode" != fast ]; then
  echo "gates.sh: unknown mode '$mode' (only 'fast' exists)" >&2
  exit 2
fi
cd "$(dirname "$0")/.."

step() { echo "gates.sh: $*"; }

step "tier-1: go build ./... && go test ./..."
go build ./...
go test ./...

step "go vet ./..."
go vet ./...

step "gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gates.sh: gofmt would reformat:" >&2
  echo "$unformatted" >&2
  exit 1
fi

step "import guards"
# forbid <pattern> <go list command...>: fail when the listing matches.
# grep reads the whole listing (no -q), so pipefail never sees go list
# die of SIGPIPE.
forbid() {
  local pattern=$1
  shift
  if "$@" | grep -E "$pattern" >/dev/null; then
    echo "gates.sh: '$*' lists a package matching $pattern" >&2
    exit 1
  fi
}
forbid '^encoding/gob$' go list -deps ./...
forbid '^(encoding/gob|compress/flate)$' go list \
  -f '{{join .Imports "\n"}}{{"\n"}}{{join .TestImports "\n"}}{{"\n"}}{{join .XTestImports "\n"}}' ./...
forbid '^(encoding/gob|compress/flate)$' go list -deps ./internal/wire ./internal/nn ./internal/replay ./internal/capes

step "go -C perfbench test ."
go -C perfbench test .

step "fast gates passed"
