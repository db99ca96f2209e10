//! Table 1 — sample of bugs found by SEAL: subsystem, buggy function, bug
//! type, and (simulated) maintainer status.
//!
//! The paper lists 45 of its 167 confirmed bugs; this harness lists up to
//! 45 of the true positives found on the synthetic corpus, with statuses
//! drawn from the paper's 56-applied / 39-confirmed / 72-submitted split.

use seal::scale::eval_base_config;
use seal_bench::{print_table, run_pipeline, simulated_status};

fn main() {
    let r = run_pipeline(&eval_base_config());
    println!("Table 1: bug samples found by SEAL (synthetic-corpus reproduction)\n");
    let mut rows = Vec::new();
    for (func, ty, _) in r.score.true_positives.iter().take(45) {
        let bug = r
            .corpus
            .bug_for(func)
            .expect("true positives are in the ledger");
        rows.push(vec![
            bug.subsystem.clone(),
            func.clone(),
            ty.label().to_string(),
            simulated_status(func).to_string(),
        ]);
    }
    print_table(
        &["SubSystem (Location)", "Buggy function", "Type", "Status"],
        &rows,
    );
    println!(
        "\n{} true bugs total ({} shown); statuses simulate the paper's 56 A / 39 C / 72 S ledger.",
        r.score.true_positives.len(),
        rows.len()
    );
}
