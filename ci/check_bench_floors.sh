#!/usr/bin/env bash
# Same-run floors on a `dx-bench --traced` result file:
#
#   ci/check_bench_floors.sh RESULT.json
#
# Fails when any workload is not `correct`, has a failed operation, lacks
# a floor metric, spends more than 5% of its time in telemetry timers
# (`telemetry.timer_overhead_pct`), runs its 8-wide tiles slower than
# 0.85x its 1-wide tiles (`core.tile_gain`), or, where it reports both,
# spends more than 2x its dense forward time on the dense input gradient
# (`nn.dense_bwd_input.us` over `nn.dense_fwd.us`). All floors are ratios
# within one run, so they hold on any hardware; absolute rates are left
# to `dx-bench compare` against a baseline from the same machine.
set -euo pipefail

MAX_TIMER_OVERHEAD_PCT=5
MIN_TILE_GAIN=0.85
MAX_DENSE_BWD_OVER_FWD=2

[ "$#" -eq 1 ] || { echo "usage: $0 RESULT.json" >&2; exit 2; }

jq -r --argjson max_overhead "$MAX_TIMER_OVERHEAD_PCT" --argjson min_gain "$MIN_TILE_GAIN" \
    --argjson max_dense "$MAX_DENSE_BWD_OVER_FWD" '
    def metric($w; $k): $w.value.per_layer[$k] | if type == "number" then . else null end;
    [
        .workloads | to_entries[] | . as $w |
        (if $w.value.correct != true then "\($w.key): outputs not correct" else empty end),
        (if $w.value.failed != 0 then "\($w.key): \($w.value.failed) failed operations" else empty end),
        (metric($w; "telemetry.timer_overhead_pct") as $o |
            if $o == null then "\($w.key): no telemetry.timer_overhead_pct"
            elif $o > $max_overhead then "\($w.key): telemetry.timer_overhead_pct \($o) > \($max_overhead)"
            else empty end),
        (metric($w; "core.tile_gain") as $g |
            if $g == null then "\($w.key): no core.tile_gain"
            elif $g < $min_gain then "\($w.key): core.tile_gain \($g) < \($min_gain)"
            else empty end),
        (metric($w; "nn.dense_fwd.us") as $f | metric($w; "nn.dense_bwd_input.us") as $b |
            if $f == null or $b == null then empty
            elif $b > $max_dense * $f then
                "\($w.key): nn.dense_bwd_input.us \($b) > \($max_dense) x nn.dense_fwd.us \($f)"
            else empty end)
    ] as $breaches
    | if (.workloads | length) == 0 then "no workloads\n" | halt_error(1)
      elif ($breaches | length) > 0 then ($breaches | join("\n")) + "\n" | halt_error(1)
      else "bench floors hold on \(.workloads | length) workloads" end
' "$1"
