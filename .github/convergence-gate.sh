#!/usr/bin/env bash
# convergence-gate.sh <baseline.txt> <bench-dir>
#
# Fails the nightly learning-quality job when CAPES converges
# significantly slower than the committed baseline. <bench-dir> holds
# the BENCH_convergence_<scenario>.json files a fresh
# `capes-bench -experiment convergence` run wrote; <baseline.txt>
# (.github/convergence-baseline.txt) commits one line per scenario:
#
#   <scenario> <time_to_threshold_ticks> <final_reward_mbps> <reward_auc>
#
# The gate fails when a scenario no longer converges at all, when its
# time-to-threshold regressed more than 15% over the committed value,
# or when its reward AUC — the mean reward over the whole trajectory,
# which catches "still converges but learns a worse policy on the way"
# regressions that time-to-threshold alone misses — drops more than 5%
# below the committed value. Faster convergence and higher AUC never
# fail — refresh the baseline when a PR intentionally improves learning
# so the gate tightens with it.
#
# The trajectories are fully deterministic (fixed seed, simulated
# cluster, virtual clock), so unlike the perf bench gate no noise
# tolerance beyond those bands is needed and the baseline is NOT
# host-sensitive: any runner reproduces the committed numbers exactly
# until the learning stack itself changes.
set -euo pipefail

base="$1"
dir="$2"
fail=0

# field <json-file> <key> — extract one scalar from the (MarshalIndent,
# known-shape) trajectory JSON without a JSON parser dependency.
field() {
  awk -F'[:,]' -v k="\"$2\"" '$1 ~ k {gsub(/[ \t]/, "", $2); print $2; exit}' "$1"
}

while read -r scenario baseTicks baseReward baseAUC; do
  case "$scenario" in ''|\#*) continue ;; esac
  cur="$dir/BENCH_convergence_${scenario}.json"
  if [ ! -f "$cur" ]; then
    echo "convergence-gate: $scenario: no trajectory at $cur (scenario removed without refreshing the baseline?)"
    fail=1
    continue
  fi
  if [ -z "$baseAUC" ]; then
    echo "convergence-gate: $scenario: baseline line has no reward_auc column (refresh $base)"
    fail=1
    continue
  fi
  converged=$(field "$cur" converged)
  ticks=$(field "$cur" time_to_threshold_ticks)
  reward=$(field "$cur" final_reward)
  auc=$(field "$cur" reward_auc)
  if [ "$converged" != "true" ]; then
    echo "convergence-gate: REGRESSION: $scenario no longer reaches its reward threshold (baseline: tick $baseTicks)"
    fail=1
    continue
  fi
  if ! awk -v o="$baseTicks" -v n="$ticks" -v s="$scenario" -v br="$baseReward" -v nr="$reward" 'BEGIN {
    r = n / o
    printf "convergence-gate: %-12s baseline tick %6d, current tick %6d (%.2fx)  final %s → %s MB/s\n", s, o, n, r, br, nr
    exit (r > 1.15) ? 1 : 0
  }'; then
    echo "convergence-gate: REGRESSION: $scenario converges >15% slower than the committed baseline"
    fail=1
  fi
  if ! awk -v o="$baseAUC" -v n="$auc" -v s="$scenario" 'BEGIN {
    r = n / o
    printf "convergence-gate: %-12s baseline auc %8.3f, current auc %8.3f (%.2fx)\n", s, o, n, r
    exit (r < 0.95) ? 1 : 0
  }'; then
    echo "convergence-gate: REGRESSION: $scenario reward AUC dropped >5% below the committed baseline"
    fail=1
  fi
done < "$base"

exit "$fail"
