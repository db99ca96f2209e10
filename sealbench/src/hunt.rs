//! `hunt_cold_4x`: the work one `seal hunt` does on a 4x-driver corpus,
//! in process, at jobs = 1 and with no cache. One op compiles and lowers
//! the target, infers specifications from every patch, and detects
//! violations.
//!
//! Chosen as the cold-compute workload: PDG/points-to construction and
//! path search do most of the work, with no cache, protocol or spill in
//! the way. A PDG or search gain shows here; a cache gain must not.

use crate::common::{
    corpus_config, items, peak_rss_kb, per_second, repeat_setup, reset_peak_rss, timed_loop,
    traced_loop, traced_report, EndToEnd, SETUP_REPS,
};
use crate::ledger::Ledger;
use crate::report::{Metric, RunReport};
use crate::speed::Speed;
use crate::stats::tail_percentile;
use crate::RunArgs;
use seal::core::{BugReport, Seal};
use seal::corpus::{ledger, Corpus};
use seal::obs::span;
use std::time::Instant;

/// Drivers per template: four times the 1x tree.
const DRIVERS: usize = 240;

/// The fewest ops a 20 s run timed on the reference host (2 CPUs); fixes
/// the tail percentile (p50: too few ops for a higher rung).
const FROZEN_OPS: usize = 25;

struct Inputs {
    corpus: Corpus,
    reference: Vec<BugReport>,
}

/// Generates the corpus and the jobs = 1 reference reports.
fn setup(seed: u64) -> Result<Inputs, String> {
    let corpus = seal::corpus::generate(&corpus_config(seed, DRIVERS));
    let reference = hunt(&corpus)?;
    Ok(Inputs { corpus, reference })
}

/// One op. Each public call sits in a `bench.*` span, so the program's
/// own spans nest under it in a traced run.
fn hunt(corpus: &Corpus) -> Result<Vec<BugReport>, String> {
    let _op = span!("bench.op");
    let tu = {
        let _s = span!("bench.kir");
        seal::obs::metrics::counter_add("bench.kir.units", 1);
        seal::kir::compile_many(&[("kernel.c", corpus.target_source.as_str())])
    }
    .map_err(|e| format!("target does not compile: {e}"))?;
    let module = {
        let _s = span!("bench.lower");
        seal::ir::lower_checked(&tu)
    }
    .map_err(|e| format!("target lowers to an invalid module: {e}"))?;
    let seal = Seal::default();
    let inferred = {
        let _s = span!("bench.infer");
        seal::core::infer_batch(&seal, &corpus.patches, 1)
    };
    let mut specs = Vec::new();
    for (patch, r) in corpus.patches.iter().zip(inferred) {
        specs.extend(r.map_err(|e| format!("patch {} failed: {e}", patch.id))?);
    }
    let (reports, _, errors) = {
        let _s = span!("bench.detect");
        seal::core::detect_bugs_isolated(&module, &specs, &seal.detect, 1)
    };
    match errors.first() {
        Some(e) => Err(format!("{} detection shard(s) failed: {e}", errors.len())),
        None => Ok(reports),
    }
}

/// Seeds of the quality panel: 1x corpora fixed in the benchmark, not
/// drawn from `--seed`.
const PANEL_SEEDS: [u64; 3] = [1, 2, 3];

/// `precision` and `recall` of the analysis on the quality panel, scored
/// against each corpus's ledger and pooled.
///
/// Both are properties of the analysis, not of an entry point: every
/// workload's correctness checks already pin its reports to the in-process
/// analysis. They are measured on fixed corpora because a seeded corpus's
/// precision moves by 6–9% from seed to seed, so across runs on different
/// seeds a precision bound could not be tighter than that spread. On the
/// panel they repeat exactly, and any change is a change of the analysis.
pub fn quality_panel() -> Result<[Metric; 2], String> {
    let mut pooled = ledger::Score::default();
    for seed in PANEL_SEEDS {
        let corpus = seal::corpus::generate(&corpus_config(seed, 60));
        let score = ledger::score(&hunt(&corpus)?, &corpus.ground_truth);
        pooled.true_positives.extend(score.true_positives);
        pooled.false_positives.extend(score.false_positives);
        pooled.false_negatives.extend(score.false_negatives);
    }
    Ok([
        Metric {
            name: "precision",
            value: pooled.precision(),
            unit: "ratio",
        },
        Metric {
            name: "recall",
            value: pooled.recall(),
            unit: "ratio",
        },
    ])
}

pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let mut speed = (!args.trace).then(|| Speed::start(1));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (inputs, setup_times) = repeat_setup(reps, speed.as_mut(), || setup(args.seed))?;
    let mut failed_checks = Vec::new();
    let recall = ledger::score(&inputs.reference, &inputs.corpus.ground_truth).recall();
    if recall != 1.0 {
        failed_checks.push(format!("recall {recall} against the ledger, expected 1.0"));
    }
    let mut mismatches = 0u64;
    let mut op = || {
        let t0 = Instant::now();
        let reports = hunt(&inputs.corpus)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if reports != inputs.reference {
            mismatches += 1;
        }
        Ok(ms)
    };

    let report = match speed.as_mut() {
        None => {
            let mut ledger = Ledger::default();
            let (plain, with_trace) = traced_loop(args.seconds, &mut ledger, &mut op);
            traced_report(&ledger, 1, &plain, &with_trace)
        }
        Some(speed) => {
            reset_peak_rss("self")?;
            let m = timed_loop(args.seconds, speed, &mut op);
            let e2e = EndToEnd {
                setup: setup_times,
                items_per_s: per_second(items(&corpus_config(args.seed, DRIVERS)), &m.latency_ms),
                tail_pct: tail_percentile(FROZEN_OPS),
                peak_kb: peak_rss_kb("self")? as f64,
                host_speed: speed.host_speed(),
                ops: m,
            };
            e2e.report()
        }
    };
    if mismatches > 0 {
        failed_checks.push(format!(
            "{mismatches} op(s) reported differently from the jobs = 1 reference"
        ));
    }
    Ok(RunReport {
        failed_checks,
        ..report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{traced, WorkDir};
    use crate::ledger::unknown_spans;
    use seal::core::AnalysisCache;
    use seal::request::{run_request, RequestKind, RunCtx};
    use std::collections::BTreeSet;

    #[test]
    fn every_span_of_a_traced_hunt_maps_to_a_ledger_layer() {
        let corpus = seal::corpus::generate(&seal::corpus::CorpusConfig {
            seed: 7,
            drivers_per_template: 3,
            bug_rate: 0.5,
            patches_per_template: 1,
            refactor_patches: 1,
            scale: 1,
        });
        // The same hunt through the request path, on two workers.
        let dir = WorkDir::new("test-spans").unwrap();
        let tree = seal::corpus::files::write_to_dir(&corpus, &dir.join("tree")).unwrap();
        let list =
            |f: fn(&(String, std::path::PathBuf, std::path::PathBuf)) -> &std::path::PathBuf| {
                tree.patch_files
                    .iter()
                    .map(|t| f(t).display().to_string())
                    .collect()
            };
        let request = RequestKind::Hunt {
            pre: list(|t| &t.1),
            post: list(|t| &t.2),
            id: "patch".to_string(),
            target: vec![tree.kernel_files[0].display().to_string()],
        };
        let ctx = RunCtx {
            cache: AnalysisCache::disabled(),
            jobs: 2,
        };
        let ((reports, result), trace, _) = traced(|| {
            let _s = span!("bench.request");
            (hunt(&corpus).unwrap(), run_request(&ctx, &request).unwrap())
        });
        assert!(!reports.is_empty());
        assert!(result.failures.is_empty());

        let unknown = unknown_spans(&trace);
        assert!(
            unknown.is_empty(),
            "spans without a ledger layer: {unknown:?}"
        );
        let names: BTreeSet<&str> = trace.flatten().into_iter().map(|(_, r)| r.name).collect();
        for expected in [
            "bench.op",
            "bench.kir",
            "ir.lower",
            "infer.patch",
            "frontend.compile",
            "infer.diff",
            "pdg.build",
            "detect.search",
            "detect.shard",
            "cli.infer",
            "cli.detect",
        ] {
            assert!(
                names.contains(expected),
                "no `{expected}` span in {names:?}"
            );
        }
    }
}
