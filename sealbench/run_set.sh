#!/usr/bin/env bash
# Measures one run set: every workload once per seed 1..10, untraced, for
# the run length in BENCHMARK.json, appending every metric to
# <out-dir>/results.jsonl. Two run sets of the same code must agree within
# the bounds (`bash sealbench/run.sh compare A B`). Run it from the
# repository root:
#
#   bash sealbench/run_set.sh sealbench/results/<name>
#
# meta.json records the CPU count, the run length and, in a git checkout,
# the revision measured.
set -euo pipefail
out="${1:?usage: run_set.sh <out-dir>}"
seconds="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\),\{0,1\} *$/\1/p' BENCHMARK.json)"
if [ -z "$seconds" ]; then
    echo "run_set.sh: no run_seconds in BENCHMARK.json" >&2
    exit 2
fi
mkdir -p "$out"
rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
printf '{"nproc":%s,"rev":"%s","seconds":%s,"seeds":[1,2,3,4,5,6,7,8,9,10]}\n' \
    "$(nproc)" "$rev" "$seconds" > "$out/meta.json"
for seed in 1 2 3 4 5 6 7 8 9 10; do
    for workload in hunt_cold_4x rehunt_cached_10pct serve_warm_2c scale_stream_10x; do
        bash sealbench/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 --out "$out" > /dev/null
    done
done
