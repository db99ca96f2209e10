//! `seal-bench` — shared harness for the paper's tables and figures.
//!
//! Every binary in `src/bin/` regenerates one artifact of §8 (see
//! DESIGN.md's experiment index) from one whole-corpus run of
//! [`seal::scale::run_materialized`] over
//! [`seal::scale::eval_base_config`]; this library holds the harness
//! policy around it and the shared table helpers.

use seal::scale::{run_materialized, Materialized};
use seal_core::DetectConfig;
use seal_corpus::CorpusConfig;
use seal_spec::{Provenance, Specification};

/// The harness policy over [`run_materialized`]: `SEAL_JOBS` workers
/// (default: available parallelism), default detection budgets, and a
/// panic on any failed patch or shard — the corpus is generated, so a
/// failure is a bug, not data.
pub fn run_pipeline(config: &CorpusConfig) -> Materialized {
    run_materialized(
        config,
        seal_runtime::worker_count(),
        &DetectConfig::default(),
    )
    .unwrap_or_else(|e| panic!("pipeline failed: {e}"))
}

/// Relation counts per provenance category (the §8.2 statistics).
pub fn provenance_counts(specs: &[Specification]) -> [(Provenance, usize); 4] {
    let count = |p: Provenance| specs.iter().filter(|s| s.provenance == p).count();
    [
        (Provenance::RemovedPath, count(Provenance::RemovedPath)),
        (Provenance::AddedPath, count(Provenance::AddedPath)),
        (Provenance::CondChanged, count(Provenance::CondChanged)),
        (Provenance::OrderChanged, count(Provenance::OrderChanged)),
    ]
}

/// Simulated maintainer status for a confirmed bug, distributed like the
/// paper's 167 found / 95 confirmed / 56 fixed-by-our-patches ledger
/// (Table 1's S/C/A column). Deterministic per function name.
pub fn simulated_status(function: &str) -> &'static str {
    let h: u64 = function.bytes().fold(0xcbf29ce484222325u64, |acc, b| {
        (acc ^ b as u64).wrapping_mul(0x100000001b3)
    });
    match h % 167 {
        0..=55 => "A",  // 56 applied
        56..=94 => "C", // 39 confirmed-only
        _ => "S",       // 72 submitted
    }
}

/// Column-aligned table printer for the harness binaries.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i.min(widths.len() - 1)]))
            .collect();
        println!("| {} |", parts.join(" | "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CorpusConfig {
        CorpusConfig {
            seed: 3,
            drivers_per_template: 6,
            bug_rate: 0.3,
            patches_per_template: 1,
            refactor_patches: 1,
            scale: 1,
        }
    }

    #[test]
    fn pipeline_produces_scored_results() {
        let r = run_pipeline(&tiny());
        assert!(!r.specs.is_empty());
        assert!(!r.reports.is_empty());
        assert!(r.score.recall() > 0.5);
        assert!(r.stats.regions > 0);
    }

    #[test]
    fn provenance_counts_sum_to_total() {
        let r = run_pipeline(&tiny());
        let total: usize = provenance_counts(&r.specs).iter().map(|(_, n)| n).sum();
        assert_eq!(total, r.specs.len());
    }

    #[test]
    fn status_distribution_roughly_matches_paper() {
        let mut a = 0;
        let mut c = 0;
        let mut s = 0;
        for i in 0..1000 {
            match simulated_status(&format!("fn_{i}")) {
                "A" => a += 1,
                "C" => c += 1,
                _ => s += 1,
            }
        }
        // 56/167 ≈ 33.5%, 39/167 ≈ 23.4%, 72/167 ≈ 43.1%.
        assert!((0.25..0.42).contains(&(a as f64 / 1000.0)), "A {a}");
        assert!((0.15..0.32).contains(&(c as f64 / 1000.0)), "C {c}");
        assert!((0.35..0.52).contains(&(s as f64 / 1000.0)), "S {s}");
    }
}
