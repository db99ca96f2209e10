//! End-to-end integration: corpus generation → spec inference → detection
//! → scoring against ground truth. This is the pipeline every RQ harness
//! builds on, exercised here at a small scale.

use seal::core::Seal;
use seal::corpus::{generate, ledger, CorpusConfig};

fn small_config() -> CorpusConfig {
    CorpusConfig {
        seed: 7,
        drivers_per_template: 10,
        bug_rate: 0.25,
        patches_per_template: 1,
        refactor_patches: 2,
        scale: 1,
    }
}

#[test]
fn pipeline_finds_seeded_bugs_with_reasonable_precision() {
    let corpus = generate(&small_config());
    let target = corpus.target_module();
    let seal = Seal::default();

    let mut specs = Vec::new();
    for patch in &corpus.patches {
        specs.extend(seal.infer(patch).expect("corpus patches compile"));
    }
    assert!(!specs.is_empty(), "no specifications inferred");

    let reports = seal.detect(&target, &specs);
    assert!(!reports.is_empty(), "no bugs detected");

    let score = ledger::score(&reports, &corpus.ground_truth);
    // The pipeline must find a solid majority of seeded bugs...
    assert!(
        score.recall() >= 0.6,
        "recall too low: {:.2} (TP {}, FN {:?})",
        score.recall(),
        score.true_positives.len(),
        score.false_negatives
    );
    // ...and precision should be in a plausible band around the paper's
    // 71.9% (the engineered FP templates pull it below 1.0).
    assert!(
        score.precision() >= 0.5,
        "precision too low: {:.2} (FPs: {:?})",
        score.precision(),
        score.false_positives
    );
}

#[test]
fn refactor_patches_yield_zero_relations() {
    let corpus = generate(&small_config());
    let seal = Seal::default();
    for patch in &corpus.patches {
        if corpus.refactor_patch_ids.contains(&patch.id) {
            let specs = seal.infer(patch).unwrap();
            assert!(
                specs.is_empty(),
                "refactor patch {} produced specs: {:?}",
                patch.id,
                specs.iter().map(|s| s.to_string()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn ambiguous_patches_produce_specs_that_misfire() {
    let corpus = generate(&small_config());
    let target = corpus.target_module();
    let seal = Seal::default();
    let mut fp_specs = Vec::new();
    for patch in &corpus.patches {
        if corpus.ambiguous_patch_ids.contains(&patch.id) {
            fp_specs.extend(seal.infer(patch).unwrap());
        }
    }
    assert!(!fp_specs.is_empty(), "ambiguity patches inferred nothing");
    let reports = seal.detect(&target, &fp_specs);
    let score = ledger::score(&reports, &corpus.ground_truth);
    // Everything these specs flag is a false positive by construction.
    assert!(score.true_positives.is_empty());
    assert!(
        !score.false_positives.is_empty(),
        "engineered FP specs flagged nothing — precision calibration broken"
    );
}

/// Digest of the rendered reports of a jobs = 1 hunt over the seed-1
/// evaluation corpus (`pinned_hunt_reports`). Pinned so that a change
/// meant to be output-identical (an index, a cheaper hash map, a cached
/// transfer function) is checked against the reports of the code before
/// it, not only against itself at another worker count. Update it only
/// with a change that means to alter reports, and say why.
const PINNED_HUNT_DIGEST: &str = "a665c182e5e9d1c97793e07b93843efe";

/// One `seal hunt` over the generated corpus, in process: compile and
/// lower the target, infer from every patch, detect with `jobs` workers.
fn hunt_rendered(corpus: &seal::corpus::Corpus, jobs: usize) -> String {
    let tu = seal::kir::compile_many(&[("kernel.c", corpus.target_source.as_str())])
        .expect("target compiles");
    let module = seal::ir::lower_checked(&tu).expect("target lowers");
    let seal = Seal::default();
    let mut specs = Vec::new();
    for r in seal::core::infer_batch(&seal, &corpus.patches, jobs) {
        specs.extend(r.expect("corpus patches infer"));
    }
    let (reports, _, errors) =
        seal::core::detect_bugs_isolated(&module, &specs, &seal.detect, jobs);
    assert!(errors.is_empty(), "detection shards failed: {errors:?}");
    seal::scale::render_reports(&reports)
}

#[test]
fn pinned_hunt_reports() {
    let corpus = generate(&CorpusConfig {
        seed: 1,
        ..seal::scale::eval_base_config()
    });
    let one = hunt_rendered(&corpus, 1);
    let two = hunt_rendered(&corpus, 2);
    assert_eq!(one, two, "reports differ between jobs 1 and 2");
    assert!(!one.is_empty(), "the hunt reports nothing");
    let digest = seal_store::ContentHash::of(one.as_bytes()).to_string();
    assert_eq!(digest, PINNED_HUNT_DIGEST, "rendered reports moved");
}
