#!/usr/bin/env bash
# Builds the seal CLI and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash sealbench/run.sh --workload hunt_cold_4x --seed 1 --seconds 20 --trace 0
#   bash sealbench/run.sh compare sealbench/results/A sealbench/results/B
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# .bench_build), so the benchmark finds the CLI next to itself.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin seal
cargo build --release --offline --quiet --manifest-path sealbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/sealbench" "$@"
