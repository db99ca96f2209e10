//! RQ1 (§8.1) — effectiveness: reports, confirmed bugs, and precision.

use seal::scale::eval_base_config;
use seal_bench::{print_table, run_pipeline};

fn main() {
    let r = run_pipeline(&eval_base_config());
    let tp = r.score.true_positives.len();
    let fp = r.score.false_positives.len();
    let reports = tp + fp;

    println!("RQ1: effectiveness of SEAL (§8.1)\n");
    print_table(
        &["Metric", "Measured", "Paper"],
        &[
            vec!["bug reports".into(), reports.to_string(), "232".into()],
            vec!["true bugs".into(), tp.to_string(), "167".into()],
            vec![
                "precision".into(),
                format!("{:.1}%", 100.0 * r.score.precision()),
                "71.9%".into(),
            ],
            vec![
                "recall vs seeded ground truth".into(),
                format!("{:.1}%", 100.0 * r.score.recall()),
                "n/a (unknowable on Linux)".into(),
            ],
        ],
    );
    println!("\nfalse positives ({fp}):");
    for f in &r.score.false_positives {
        println!("  FP {f}");
    }
    if !r.score.false_negatives.is_empty() {
        println!("missed seeded bugs ({}):", r.score.false_negatives.len());
        for f in &r.score.false_negatives {
            println!("  FN {f}");
        }
    }
}
