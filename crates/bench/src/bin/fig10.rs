//! Fig. 10 — bug types supported by SEAL and the existing efforts.
//!
//! Runs SEAL, APHP-lite, and CRIX-lite on the same corpus and prints the
//! per-type coverage matrix (✓ = the tool reported at least one true bug
//! of the class).

use seal::scale::eval_base_config;
use seal_baselines::{aphp, crix};
use seal_bench::{print_table, run_pipeline};
use seal_core::BugType;
use std::collections::BTreeSet;

fn main() {
    let r = run_pipeline(&eval_base_config());
    let target = r.corpus.target_module();

    // APHP: mine tuples from the same patch set, then detect.
    let mut aphp_specs = Vec::new();
    for p in &r.corpus.patches {
        aphp_specs.extend(aphp::infer(p));
    }
    let aphp_reports = aphp::detect(&target, &aphp_specs);

    // CRIX: deviation analysis directly on the target.
    let crix_reports = crix::detect(&target);

    let types_of = |names: &BTreeSet<String>| -> BTreeSet<BugType> {
        r.corpus
            .ground_truth
            .iter()
            .filter(|b| names.contains(&b.function))
            .map(|b| b.bug_type)
            .collect()
    };
    let seal_found: BTreeSet<String> = r
        .score
        .true_positives
        .iter()
        .map(|(f, _, _)| f.clone())
        .collect();
    let aphp_found: BTreeSet<String> = aphp_reports.iter().map(|x| x.function.clone()).collect();
    let crix_found: BTreeSet<String> = crix_reports.iter().map(|x| x.function.clone()).collect();
    let (seal_types, aphp_types, crix_types) = (
        types_of(&seal_found),
        types_of(&aphp_found),
        types_of(&crix_found),
    );

    println!("Fig. 10: bug types supported by SEAL and existing efforts\n");
    let all = [
        BugType::Npd,
        BugType::MemLeak,
        BugType::WrongEc,
        BugType::Oob,
        BugType::Uaf,
        BugType::Dbz,
        BugType::Uninit,
    ];
    let mark = |s: &BTreeSet<BugType>, t: BugType| if s.contains(&t) { "Y" } else { "-" };
    let mut rows = Vec::new();
    for t in all {
        rows.push(vec![
            t.label().to_string(),
            mark(&seal_types, t).to_string(),
            mark(&aphp_types, t).to_string(),
            mark(&crix_types, t).to_string(),
        ]);
    }
    print_table(&["Bug type", "SEAL", "APHP", "CRIX"], &rows);
    println!(
        "\nSEAL covers {} classes, APHP {} (post-handling only), CRIX {} (missing checks only).",
        seal_types.len(),
        aphp_types.len(),
        crix_types.len()
    );
}
