//! Fig. 8(a) — latent years of reported bugs.
//!
//! Histogram over age bands for the true positives, with the two summary
//! moments the paper reports: average 7.7 years, 29% above 10 years.

use seal::scale::eval_base_config;
use seal_bench::{print_table, run_pipeline};
use seal_corpus::age::band;

fn main() {
    let r = run_pipeline(&eval_base_config());
    let ages: Vec<u32> = r.score.true_positives.iter().map(|(_, _, y)| *y).collect();
    let total = ages.len().max(1);

    println!("Fig. 8(a): latent years of reported bugs\n");
    let bands = ["0-2", "3-5", "6-8", "9-10", ">10"];
    let mut rows = Vec::new();
    for b in bands {
        let n = ages.iter().filter(|&&y| band(y) == b).count();
        let pct = 100.0 * n as f64 / total as f64;
        rows.push(vec![
            b.to_string(),
            n.to_string(),
            format!("{pct:.0}%"),
            "#".repeat((pct / 2.0).round() as usize),
        ]);
    }
    print_table(&["Years", "Bugs", "Share", "Histogram"], &rows);

    let avg = ages.iter().map(|&y| y as f64).sum::<f64>() / total as f64;
    let over10 = 100.0 * ages.iter().filter(|&&y| y > 10).count() as f64 / total as f64;
    println!("\naverage latency: {avg:.1} years (paper: 7.7)");
    println!("latent > 10 years: {over10:.0}% (paper: 29%)");
}
