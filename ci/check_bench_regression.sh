#!/usr/bin/env bash
# Compares per-arm *scaling* between two bench_results directories and
# fails when any arm regressed more than the allowed percentage.
#
# Usage: ci/check_bench_regression.sh <baseline_dir> <fresh_dir> \
#            [max_regression_pct] [max_overhead_pct] [min_batched_ratio]
#
# What is compared is the speedup column — the last field of every data
# row ("1.23x"). Speedup is a *same-run* ratio: each arm is normalized
# against its own run's baseline arm, so the comparison survives the
# baselines having been recorded on different hardware. Raw seeds/s is
# deliberately NOT compared — absolute throughput across machines (CI
# runner vs the laptop that committed the baseline) is noise, and gating
# on it produced both false failures and false passes.
#
# New arms present only in the fresh results are reported but do not fail
# the check (baselines are updated by the PR that introduces the arm);
# arms *missing* from the fresh results fail it.
#
# The campaign_scaling bench also emits a "telemetry overhead:" line — a
# same-run pair of identical arms with the hot-path phase timers disabled
# vs enabled. That overhead must stay under max_overhead_pct (default 5).
#
# It further emits a "batched speedup:" line — the same-run seeds/s ratio
# of the tile-8 batched generator arm over the tile-1 scalar arm, on
# bit-identical work. That ratio must stay at or above min_batched_ratio
# (default 0.85): on the conv-dominated test-scale workload the two arms
# measure at parity and will keep doing so — conv's lhs is the weight
# matrix, so lowering a whole tile into one column matrix only widens the
# matmul's n, which the kernel was never short of (LeNet-5 conv2: 75.8 us
# at n = 400 vs 4 x 18.5 us at n = 100). The gate's job is to catch the
# batched path regressing into a pessimization, with a 15% noise
# allowance.
set -euo pipefail

baseline_dir=${1:?usage: check_bench_regression.sh <baseline_dir> <fresh_dir> [max_pct] [max_overhead_pct] [min_batched_ratio]}
fresh_dir=${2:?usage: check_bench_regression.sh <baseline_dir> <fresh_dir> [max_pct] [max_overhead_pct] [min_batched_ratio]}
max_pct=${3:-25}
max_overhead_pct=${4:-5}
min_batched_ratio=${5:-0.85}

# Data rows end with the speedup column; everything before the numeric
# columns is the arm name. Emits "<arm>\t<speedup>" with the x stripped.
extract() {
  awk '$NF ~ /^[0-9]+\.[0-9]+x$/ {
    name = $1
    for (i = 2; i <= NF - 5; i++) name = name " " $i
    ratio = $NF
    sub(/x$/, "", ratio)
    print name "\t" ratio
  }' "$1"
}

fail=0
for bench in campaign_scaling dist_scaling; do
  base_file="$baseline_dir/$bench.txt"
  fresh_file="$fresh_dir/$bench.txt"
  if [ ! -f "$base_file" ]; then
    echo "FAIL $bench: missing baseline $base_file"
    fail=1
    continue
  fi
  if [ ! -f "$fresh_file" ]; then
    echo "FAIL $bench: missing fresh results $fresh_file"
    fail=1
    continue
  fi
  base_table=$(extract "$base_file")
  fresh_table=$(extract "$fresh_file")
  if [ -z "$base_table" ]; then
    echo "FAIL $bench: no parseable arms in $base_file"
    fail=1
    continue
  fi
  while IFS=$'\t' read -r arm base_value; do
    fresh_value=$(printf '%s\n' "$fresh_table" | awk -F'\t' -v a="$arm" '$1 == a { print $2; exit }')
    if [ -z "$fresh_value" ]; then
      echo "FAIL $bench / $arm: arm missing from fresh results"
      fail=1
      continue
    fi
    if ! awk -v base="$base_value" -v fresh="$fresh_value" -v max="$max_pct" \
             -v tag="$bench / $arm" 'BEGIN {
          floor = base * (1 - max / 100)
          if (fresh < floor) {
            printf "FAIL %s: %.2fx speedup < %.2fx floor (baseline %.2fx, max -%s%%)\n",
                   tag, fresh, floor, base, max
            exit 1
          }
          printf "ok   %s: %.2fx speedup (baseline %.2fx)\n", tag, fresh, base
        }'; then
      fail=1
    fi
  done <<< "$base_table"
  # Arms only in the fresh results: informational, baselines catch up with
  # the next commit to bench_results/.
  while IFS=$'\t' read -r arm _; do
    [ -z "$arm" ] && continue
    known=$(printf '%s\n' "$base_table" | awk -F'\t' -v a="$arm" '$1 == a { print 1; exit }')
    if [ -z "$known" ]; then
      echo "new  $bench / $arm: no baseline yet"
    fi
  done <<< "$fresh_table"
done

# Instrumentation-overhead budget: timers-on vs timers-off, same run,
# same machine. Negative overhead (noise) passes.
overhead=$(awk '/^telemetry overhead:/ { v = $3; sub(/%$/, "", v); print v; exit }' \
  "$fresh_dir/campaign_scaling.txt" 2>/dev/null || true)
if [ -z "$overhead" ]; then
  echo "FAIL campaign_scaling: no 'telemetry overhead:' line in fresh results"
  fail=1
elif ! awk -v o="$overhead" -v max="$max_overhead_pct" 'BEGIN {
    if (o > max) {
      printf "FAIL telemetry overhead: %.1f%% > %s%% budget\n", o, max
      exit 1
    }
    printf "ok   telemetry overhead: %.1f%% (budget %s%%)\n", o, max
  }'; then
  fail=1
fi

# Batched/scalar floor: the tile-8 and tile-1 arms run identical work in
# the same process, so the ratio is hardware-independent. Below the floor
# the batched path has stopped paying for itself.
batched=$(awk '/^batched speedup:/ { v = $3; sub(/x$/, "", v); print v; exit }' \
  "$fresh_dir/campaign_scaling.txt" 2>/dev/null || true)
if [ -z "$batched" ]; then
  echo "FAIL campaign_scaling: no 'batched speedup:' line in fresh results"
  fail=1
elif ! awk -v r="$batched" -v min="$min_batched_ratio" 'BEGIN {
    if (r < min) {
      printf "FAIL batched speedup: %.2fx < %sx floor (batched generator path regressed vs scalar)\n", r, min
      exit 1
    }
    printf "ok   batched speedup: %.2fx (floor %sx)\n", r, min
  }'; then
  fail=1
fi
exit $fail
