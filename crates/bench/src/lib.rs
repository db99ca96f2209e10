//! `seal-bench` — shared harness for the paper's tables and figures.
//!
//! Every binary in `src/bin/` regenerates one artifact of §8 (see
//! DESIGN.md's experiment index); this library holds the common pipeline:
//! generate the corpus, infer specifications from all patches, detect
//! violations in the target kernel, and score against ground truth.

use seal_core::{AnalysisCache, BugReport, DetectStats, ModuleFacts, Seal};
use seal_corpus::ledger::{score, Score};
use seal_corpus::{generate, Corpus, CorpusConfig};
use seal_spec::{Provenance, Specification};
use std::time::{Duration, Instant};

/// Corpus scale used by the RQ harnesses (larger than the unit-test scale
/// so distributions are readable).
pub fn eval_config() -> CorpusConfig {
    CorpusConfig {
        seed: 0x5EA1,
        drivers_per_template: 60,
        bug_rate: 0.18,
        patches_per_template: 6,
        refactor_patches: 20,
        scale: 1,
    }
}

/// Everything the experiment binaries need.
pub struct PipelineResult {
    /// The generated corpus.
    pub corpus: Corpus,
    /// All inferred specifications.
    pub specs: Vec<Specification>,
    /// Per-patch specification counts (patch id, count).
    pub per_patch_specs: Vec<(String, usize)>,
    /// All reports (deduplicated).
    pub reports: Vec<BugReport>,
    /// Score against ground truth.
    pub score: Score,
    /// Wall-clock of the inference stage.
    pub infer_time: Duration,
    /// Wall-clock of the detection stage.
    pub detect_time: Duration,
    /// Detection phase split.
    pub detect_stats: DetectStats,
}

/// Runs the full SEAL pipeline on a corpus configuration, with the worker
/// count taken from `SEAL_JOBS` (default: available parallelism).
pub fn run_pipeline(config: &CorpusConfig) -> PipelineResult {
    run_pipeline_with_jobs(config, seal_runtime::worker_count())
}

/// Runs the full SEAL pipeline with an explicit worker count.
///
/// Each patch compiles and diffs independently on the work-stealing pool;
/// per-patch results come back in patch-index order, so the merged spec
/// list — and everything downstream — is byte-identical to a sequential
/// run for any `jobs`.
///
/// The requested count is capped at the host's available parallelism
/// ([`seal_runtime::effective_jobs`]): the pipeline is CPU-bound, so
/// extra threads beyond the cores only add scheduling overhead, and the
/// determinism contract makes the cap invisible in the output.
pub fn run_pipeline_with_jobs(config: &CorpusConfig, jobs: usize) -> PipelineResult {
    let corpus = {
        let _span = seal_obs::span!("pipeline.generate", seed = config.seed);
        generate(config)
    };
    let target = corpus.target_module();
    let parts = run_parts(&corpus, &target, jobs, &AnalysisCache::disabled());
    PipelineResult {
        corpus,
        specs: parts.specs,
        per_patch_specs: parts.per_patch_specs,
        reports: parts.reports,
        score: parts.score,
        infer_time: parts.infer_time,
        detect_time: parts.detect_time,
        detect_stats: parts.detect_stats,
    }
}

/// [`PipelineResult`] without the corpus: what one inference + detection
/// pass over *given* inputs produces. Lets harnesses (the cache benchmark)
/// run the analysis repeatedly — or over mutated inputs — without
/// regenerating or re-owning the corpus.
pub struct PipelineParts {
    /// All inferred specifications.
    pub specs: Vec<Specification>,
    /// Per-patch specification counts (patch id, count).
    pub per_patch_specs: Vec<(String, usize)>,
    /// All reports (deduplicated).
    pub reports: Vec<BugReport>,
    /// Score against ground truth.
    pub score: Score,
    /// Wall-clock of the inference stage.
    pub infer_time: Duration,
    /// Wall-clock of the detection stage.
    pub detect_time: Duration,
    /// Detection phase split.
    pub detect_stats: DetectStats,
}

/// Runs inference over `corpus.patches` and detection over `target`, with
/// the given worker count and artifact cache.
pub fn run_parts(
    corpus: &Corpus,
    target: &seal_ir::Module,
    jobs: usize,
    cache: &AnalysisCache,
) -> PipelineParts {
    let jobs = seal_runtime::effective_jobs(jobs);
    let seal = Seal {
        cache: cache.clone(),
        ..Seal::default()
    };

    let t0 = Instant::now();
    let infer_span = seal_obs::span!("pipeline.infer", patches = corpus.patches.len());
    let per_patch = seal_core::infer_batch(&seal, &corpus.patches, jobs);
    drop(infer_span);
    let mut specs = Vec::new();
    let mut per_patch_specs = Vec::new();
    for (patch, s) in corpus.patches.iter().zip(per_patch) {
        let s = s.expect("corpus patches compile");
        per_patch_specs.push((patch.id.clone(), s.len()));
        specs.extend(s);
    }
    let infer_time = t0.elapsed();
    seal_obs::metrics::counter_add("pipeline.specs", specs.len() as u64);

    let t1 = Instant::now();
    let (reports, detect_stats) = {
        let _span = seal_obs::span!("pipeline.detect", specs = specs.len());
        let (reports, stats, errors) = seal_core::detect_bugs_isolated_cached(
            target,
            &ModuleFacts::new(target),
            &specs,
            &seal.detect,
            jobs,
            &seal.cache,
        );
        if let Some(e) = errors.first() {
            panic!("detection shard failed: {e}");
        }
        (reports, stats)
    };
    let detect_time = t1.elapsed();

    let score = score(&reports, &corpus.ground_truth);
    PipelineParts {
        specs,
        per_patch_specs,
        reports,
        score,
        infer_time,
        detect_time,
        detect_stats,
    }
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
        assert!(r.detect_stats.regions > 0);
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
