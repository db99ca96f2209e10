//! Worker-count independence: the pipeline must produce byte-identical
//! specifications, reports, and scores for any number of workers.

use seal::scale::{run_materialized, Materialized};
use seal_core::{detect_bugs_isolated, BugReport, DetectConfig, DetectStats, Seal};
use seal_corpus::CorpusConfig;
use seal_spec::parse::to_line;
use seal_spec::Specification;

fn config() -> CorpusConfig {
    CorpusConfig {
        seed: 0x0DD5EED,
        drivers_per_template: 12,
        bug_rate: 0.25,
        patches_per_template: 2,
        refactor_patches: 4,
        scale: 1,
    }
}

/// The harness pipeline at an explicit worker count.
fn run_with_jobs(cfg: &CorpusConfig, jobs: usize) -> Materialized {
    run_materialized(cfg, jobs, &DetectConfig::default()).expect("corpus pipeline runs")
}

fn render(r: &Materialized) -> String {
    let mut out = String::new();
    for s in &r.specs {
        out.push_str(&to_line(s));
        out.push('\n');
    }
    for (id, n) in &r.per_patch_specs {
        out.push_str(&format!("{id}\t{n}\n"));
    }
    for rep in &r.reports {
        out.push_str(&format!("{rep}\n"));
    }
    out.push_str(&format!("{:?}\n", r.score));
    out.push_str(&render_detection(&r.reports, &r.stats));
    out
}

/// Reports plus every deterministic detection counter.
fn render_detection(reports: &[BugReport], stats: &DetectStats) -> String {
    let mut out: String = reports.iter().map(|r| format!("{r}\n")).collect();
    out.push_str(&format!(
        "regions={} skipped={}\n",
        stats.regions, stats.skipped
    ));
    out.push_str(&format!(
        "solver_queries={} solver_cache_hits={} subtrees_pruned={} sources_skipped_unreachable={}\n",
        stats.solver_queries,
        stats.solver_cache_hits,
        stats.subtrees_pruned,
        stats.sources_skipped_unreachable
    ));
    out
}

fn infer_all(corpus: &seal_corpus::Corpus) -> Vec<Specification> {
    let seal = Seal::default();
    let mut specs = Vec::new();
    for patch in &corpus.patches {
        specs.extend(seal.infer(patch).expect("corpus patches compile"));
    }
    specs
}

#[test]
fn one_vs_four_workers_byte_identical() {
    let cfg = config();
    let seq = run_with_jobs(&cfg, 1);
    let par = run_with_jobs(&cfg, 4);
    assert!(
        !seq.specs.is_empty(),
        "config too small to exercise inference"
    );
    assert!(
        !seq.reports.is_empty(),
        "config too small to exercise detection"
    );
    assert_eq!(render(&seq), render(&par));
}

#[test]
fn oversubscribed_pool_is_still_deterministic() {
    let cfg = config();
    let seq = run_with_jobs(&cfg, 1);
    // More workers than shards/patches: workers must idle without
    // perturbing merge order.
    let par = run_with_jobs(&cfg, 17);
    assert_eq!(render(&seq), render(&par));
}

/// Detection alone, on smaller corpora at more seeds and with worker
/// counts passed straight to the pool (not capped at the host's cores):
/// reports and every deterministic counter match the sequential run.
#[test]
fn detection_is_identical_at_every_worker_count() {
    for seed in [0xA11CEu64, 0xBEEF] {
        let corpus = seal_corpus::generate(&CorpusConfig {
            seed,
            drivers_per_template: 4,
            bug_rate: 0.3,
            patches_per_template: 2,
            refactor_patches: 2,
            scale: 1,
        });
        let target = corpus.target_module();
        let specs = infer_all(&corpus);
        let render = |jobs: usize| {
            let (reports, stats, errors) =
                detect_bugs_isolated(&target, &specs, &Seal::default().detect, jobs);
            assert!(errors.is_empty(), "seed {seed:#x} jobs {jobs}: {errors:?}");
            render_detection(&reports, &stats)
        };
        let reference = render(1);
        assert!(reference.contains('\n'));
        for jobs in [2, 4, 8] {
            assert_eq!(reference, render(jobs), "jobs {jobs} (seed {seed:#x})");
        }
    }
}

/// A second copy of every spec, as if mined from other patches, adds
/// neither work nor output: detection checks one spec per (interface,
/// constraints) group, so the region count and the rendered reports are
/// those of the original list.
#[test]
fn duplicate_specs_from_other_patches_change_nothing() {
    let corpus = seal_corpus::generate(&config());
    let target = corpus.target_module();
    let specs = infer_all(&corpus);
    let mut doubled = specs.clone();
    doubled.extend(specs.iter().map(|s| Specification {
        origin_patch: format!("{}-copy", s.origin_patch),
        ..s.clone()
    }));
    let cfg = Seal::default().detect;
    let (once, once_stats, once_errors) = detect_bugs_isolated(&target, &specs, &cfg, 2);
    let (twice, twice_stats, twice_errors) = detect_bugs_isolated(&target, &doubled, &cfg, 2);
    assert!(once_errors.is_empty() && twice_errors.is_empty());
    assert!(!once.is_empty(), "config too small to exercise detection");
    let show = |rs: &[BugReport]| rs.iter().map(|r| format!("{r}\n")).collect::<String>();
    assert_eq!(show(&once), show(&twice));
    assert_eq!(once_stats.regions, twice_stats.regions);
}
