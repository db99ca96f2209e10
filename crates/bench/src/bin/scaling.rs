//! Worker-count scaling check: a hunt on more workers must not be slower
//! than on one.
//!
//! Runs the whole-corpus pipeline ([`run_materialized`]) over the 1x
//! evaluation corpus at jobs 1 and jobs 4 — the latter capped at the
//! host's CPUs — for one warmup run, then five rounds that each run both
//! counts back to back. Each round yields one paired ratio per statistic,
//! so machine-load drift that hits a whole round cancels; the reported
//! figure is the median over the rounds. Two bounds:
//!
//! - end-to-end speedup (jobs-1 time / jobs-4 time) ≥ 0.95;
//! - summed `DetectStats::pdg_time` (jobs 4 / jobs 1) ≤ 1.1. PDG time is
//!   summed over the shards, so it stays flat when workers do not
//!   contend; a rise is the multi-core cliff shard-local state removed.
//!
//! Takes no arguments, writes no file, prints one summary line, and exits
//! 1 when a bound fails:
//!
//! ```sh
//! cargo run --release --offline -p seal-bench --bin scaling
//! ```

use seal::scale::{eval_base_config, run_materialized};
use seal_core::DetectConfig;
use std::time::Instant;

const ROUNDS: usize = 5;
const JOBS: usize = 4;
const MIN_SPEEDUP: f64 = 0.95;
const MAX_PDG_RATIO: f64 = 1.1;

/// One timed pipeline run: (end-to-end ms, summed PDG ms).
fn timed_run(jobs: usize) -> (f64, f64) {
    let t0 = Instant::now();
    let r = run_materialized(&eval_base_config(), jobs, &DetectConfig::default())
        .unwrap_or_else(|e| panic!("pipeline failed: {e}"));
    let total = t0.elapsed().as_secs_f64() * 1e3;
    (total, r.stats.pdg_time.as_secs_f64() * 1e3)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // One warmup run, so first-touch costs land in neither side of a pair.
    let _ = timed_run(1);
    let mut speedups = Vec::with_capacity(ROUNDS);
    let mut pdg_ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (total_1, pdg_1) = timed_run(1);
        let (total_n, pdg_n) = timed_run(JOBS);
        speedups.push(total_1 / total_n);
        pdg_ratios.push(pdg_n / pdg_1);
    }
    let speedup = median(speedups);
    let pdg_ratio = median(pdg_ratios);

    let mut failures = Vec::new();
    if speedup < MIN_SPEEDUP {
        failures.push(format!("speedup {speedup:.3} < {MIN_SPEEDUP}"));
    }
    if pdg_ratio > MAX_PDG_RATIO {
        failures.push(format!("pdg_time ratio {pdg_ratio:.3} > {MAX_PDG_RATIO}"));
    }
    let verdict = if failures.is_empty() {
        "ok".to_string()
    } else {
        format!("FAIL ({})", failures.join("; "))
    };
    println!(
        "scaling: jobs {JOBS} vs 1 on the 1x corpus, cpus {cpus}, median of {ROUNDS} paired \
         rounds: speedup {speedup:.3} (floor {MIN_SPEEDUP}), pdg_time ratio {pdg_ratio:.3} \
         (ceiling {MAX_PDG_RATIO}): {verdict}"
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
