//! RQ3 (§8.3) — comparison with APHP (patch-based) and CRIX
//! (deviation-based) on the same inputs.

use seal::scale::eval_base_config;
use seal_baselines::{aphp, crix};
use seal_bench::{print_table, run_pipeline};
use seal_corpus::ledger::score;
use std::collections::BTreeSet;

fn main() {
    let r = run_pipeline(&eval_base_config());
    let target = r.corpus.target_module();

    // APHP on the same patch set.
    let mut aphp_specs = Vec::new();
    for p in &r.corpus.patches {
        aphp_specs.extend(aphp::infer(p));
    }
    let aphp_reports = aphp::detect(&target, &aphp_specs);
    let aphp_core: Vec<seal_core::BugReport> = aphp_reports
        .iter()
        .map(|b| fake_core_report(&b.function))
        .collect();
    let aphp_score = score(&aphp_core, &r.corpus.ground_truth);

    // CRIX directly on the target kernel.
    let crix_reports = crix::detect(&target);
    let crix_core: Vec<seal_core::BugReport> = crix_reports
        .iter()
        .map(|b| fake_core_report(&b.function))
        .collect();
    let crix_score = score(&crix_core, &r.corpus.ground_truth);

    println!("RQ3: comparison with patch-based and deviation-based tools (§8.3)\n");
    let row = |tool: &str, reports: usize, s: &seal_corpus::ledger::Score, paper: &str| {
        vec![
            tool.to_string(),
            reports.to_string(),
            s.true_positives.len().to_string(),
            format!("{:.1}%", 100.0 * s.precision()),
            paper.to_string(),
        ]
    };
    print_table(
        &["Tool", "Reports", "TP", "Precision", "Paper (reports/TP)"],
        &[
            row(
                "SEAL",
                r.score.true_positives.len() + r.score.false_positives.len(),
                &r.score,
                "232 / 167 (71.9%)",
            ),
            row(
                "APHP-lite",
                aphp_reports.len(),
                &aphp_score,
                "28,479 / 60 (0.2%)",
            ),
            row(
                "CRIX-lite",
                crix_reports.len(),
                &crix_score,
                "3,105 / 44 (1.4%)",
            ),
        ],
    );

    // Overlap analysis (the paper: APHP shares 25 leaks with SEAL; CRIX
    // shares 1 bug).
    let seal_set: BTreeSet<&str> = r
        .score
        .true_positives
        .iter()
        .map(|(f, _, _)| f.as_str())
        .collect();
    let aphp_set: BTreeSet<&str> = aphp_score
        .true_positives
        .iter()
        .map(|(f, _, _)| f.as_str())
        .collect();
    let crix_set: BTreeSet<&str> = crix_score
        .true_positives
        .iter()
        .map(|(f, _, _)| f.as_str())
        .collect();
    println!(
        "\noverlap: SEAL∩APHP = {} bugs (all leaks), SEAL∩CRIX = {} bugs (missing checks)",
        seal_set.intersection(&aphp_set).count(),
        seal_set.intersection(&crix_set).count()
    );
    println!(
        "unique to SEAL: {} bugs",
        seal_set
            .difference(&aphp_set.union(&crix_set).copied().collect())
            .count()
    );
}

/// Wraps a baseline hit in a core report shape for the shared scorer.
fn fake_core_report(function: &str) -> seal_core::BugReport {
    seal_core::BugReport {
        spec: seal_spec::Specification {
            interface: None,
            constraints: vec![],
            origin_patch: "baseline".into(),
            provenance: seal_spec::Provenance::AddedPath,
        },
        module: "kernel.c".into(),
        function: function.to_string(),
        line: 0,
        bug_type: seal_core::BugType::Other,
        witness_lines: vec![],
        explanation: String::new(),
    }
}
