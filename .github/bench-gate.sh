#!/usr/bin/env bash
# bench-gate.sh <baseline.txt> <current.txt>
#
# Fails the bench job when a gated hot-path benchmark regressed more
# than 10% against the committed baseline (.github/bench-baseline.txt).
# Both files are raw `go test -bench` output with -count >= 2; the gate
# compares the mean ns/op per benchmark, which together with benchstat's
# report (run alongside for the human-readable deltas) keeps single-run
# noise from tripping the gate.
#
# The baseline is host-sensitive: refresh it (run the bench job, commit
# the uploaded bench.txt as .github/bench-baseline.txt) whenever the
# runner hardware class changes, whenever a PR intentionally changes
# train-step performance, and whenever the SIMD kernel tier a runner
# lands on changes. Both files carry a "kernel-tier:" line (the CI bench
# job appends it via `capes-inspect -tier`); when the tiers differ the
# gate refuses to compare at all — an avx2 baseline against a scalar-
# tier run is a hardware change, not a regression — and asks for a
# baseline refresh instead. On shared-fleet runners the absolute numbers
# can drift run to run with zero code change, so a second,
# host-independent gate also runs: the replay ring's frame write must
# keep its margin over the map store *within the same run*.
set -euo pipefail

base="$1"
cur="$2"
fail=0

# Kernel-tier guard: absolute ns/op comparisons are only meaningful
# within one SIMD tier. Missing lines (pre-tier baselines) only warn.
tierOf() { awk '/^kernel-tier:/ {print $2; exit}' "$1"; }
baseTier=$(tierOf "$base")
curTier=$(tierOf "$cur")
if [ -n "$baseTier" ] && [ -n "$curTier" ]; then
  if [ "$baseTier" != "$curTier" ]; then
    # Not a regression and not a pass either: the comparison is simply
    # undefined across tiers. Skip neutrally (exit 0 with a notice) so
    # a runner-fleet reshuffle doesn't page anyone; the baseline still
    # needs a refresh before the gate means anything again.
    echo "bench-gate: baseline is from a different kernel tier ($baseTier) than this run ($curTier)."
    echo "bench-gate: SKIPPED — cross-tier comparison is undefined; regenerate .github/bench-baseline.txt on this runner class."
    echo "::notice title=bench-gate skipped::baseline kernel tier ($baseTier) != runner tier ($curTier); refresh .github/bench-baseline.txt"
    exit 0
  fi
  echo "bench-gate: kernel tier $curTier (matches baseline)"
else
  echo "bench-gate: WARNING: kernel-tier line missing from $([ -z "$baseTier" ] && echo baseline)$([ -z "$baseTier" ] && [ -z "$curTier" ] && echo ' and ')$([ -z "$curTier" ] && echo 'current run'); comparing anyway"
fi

mean() { # mean ns/op of every -count repetition of one benchmark
  # $1 is the bare name on GOMAXPROCS=1 hosts, name-N elsewhere.
  awk -v n="$1" '($1 == n || index($1, n "-") == 1) && $4 == "ns/op" {s += $3; c++} END {if (c) printf "%.0f", s / c}' "$2"
}

check() {
  local name="$1" old new
  old=$(mean "$name" "$base")
  new=$(mean "$name" "$cur")
  if [ -z "$old" ] || [ -z "$new" ]; then
    echo "bench-gate: benchmark $name missing from baseline or current run"
    fail=1
    return
  fi
  if ! awk -v o="$old" -v n="$new" -v name="$name" 'BEGIN {
    r = n / o
    printf "bench-gate: %-34s baseline %11.0f ns/op, current %11.0f ns/op (%.2fx)\n", name, o, n, r
    exit (r > 1.10) ? 1 : 0
  }'; then
    echo "bench-gate: REGRESSION: $name is >10% slower than the committed baseline"
    fail=1
  fi
}

# ratio gates one benchmark against a reference benchmark within the
# current run (speedup = reference ns/op ÷ subject ns/op) — immune to
# runner-to-runner hardware drift. Used for the ring-vs-map replay write.
ratio() {
  local subject="$1" reference="$2" minSpeedup="$3" subj ref
  subj=$(mean "$subject" "$cur")
  ref=$(mean "$reference" "$cur")
  if [ -z "$subj" ] || [ -z "$ref" ]; then
    echo "bench-gate: ratio pair $subject / $reference missing from current run"
    fail=1
    return
  fi
  if ! awk -v a="$subj" -v b="$ref" -v m="$minSpeedup" -v n="$subject" -v d="$reference" 'BEGIN {
    s = b / a
    printf "bench-gate: %-34s %.2fx vs %s this run (floor %.2fx)\n", n, s, d, m
    exit (s < m) ? 1 : 0
  }'; then
    echo "bench-gate: REGRESSION: $subject fell below its required margin against $reference"
    fail=1
  fi
}

# The control loop's two latencies (paper §3.4, PERF.md), at the
# deployed float32 precision.
check "BenchmarkTrainStep/obs256/f32"
check "BenchmarkTrainStep/obs64/f32"
# The repo benchmark's paper-rig-train network (500-500-500-5).
check "BenchmarkTrainStep/obs500/f32"
check "BenchmarkSelectAction/f32"

# The replay ring's two hot paths (PERF.md "Arena-backed replay ring"):
# the per-tick frame write and Algorithm 1 minibatch assembly.
check "BenchmarkReplayPut/ring"
check "BenchmarkConstructMinibatch/obs256/f32"

# Host-independent: the arena-ring write must keep its margin over the
# seed-style map store within the same run (measured ~4× on the
# reference host).
ratio "BenchmarkReplayPut/ring" "BenchmarkReplayPut/map" 2.5

# One full lockstep engine tick at the deployed obs256 shape. The
# backward gradient GEMM feeding the tick (the dot-tile kernels) is
# gated alongside.
check "BenchmarkEngineTick/serial/obs256"
check "BenchmarkMulTransBInto/f32"
# The paper rig's own forward GEMM (width 500: a 256- and a 244-wide
# column block, so the tile kernel's 8-lane and 4-lane steps both run).
check "BenchmarkMulInto/32x500x500/f32"
# The rig's two ∂L/∂in products: a hidden layer's (the 2 × 2 dot tile,
# depth 500 leaves a k % 8 tail of 4) and the 5-wide Q head's (the
# saxpy1 chain over a packed bᵀ).
check "BenchmarkMulTransBInto/32x500x500/f32"
check "BenchmarkMulTransBInto/32x5x500/f32"

exit "$fail"
