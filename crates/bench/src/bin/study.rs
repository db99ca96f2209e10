//! §3.2 empirical study — how often bug traces stay inside the patched
//! functions (the paper: 34.8% of bug traces are confined; the rest need
//! inter-procedural analysis).

use seal::scale::eval_base_config;
use seal_bench::print_table;
use seal_core::diff::{diff_patch, AbstractPath, DiffConfig};
use seal_corpus::generate;

fn main() {
    let corpus = generate(&eval_base_config());
    let cfg = DiffConfig::default();

    let mut confined = 0usize;
    let mut crossing = 0usize;
    for patch in &corpus.patches {
        let Ok(compiled) = patch.compile() else {
            continue;
        };
        // The *changed* value-flow paths are the bug traces of a patch
        // (the study located traces by slicing from the change sites).
        let changed = diff_patch(&compiled, &cfg);
        let mut traces: Vec<&AbstractPath> = Vec::new();
        traces.extend(changed.removed.iter());
        traces.extend(changed.added.iter());
        traces.extend(changed.cond_changed.iter().map(|(pre, _)| pre));
        for path in traces {
            // A trace is confined when every statement it touches lies in
            // one function — read off the per-node `fname#...` signature.
            let funcs: std::collections::BTreeSet<&str> = path
                .sig
                .split(" -> ")
                .filter_map(|node| node.split('#').next())
                .collect();
            if funcs.len() <= 1 {
                confined += 1;
            } else {
                crossing += 1;
            }
        }
    }
    let total = (confined + crossing).max(1);

    println!("Empirical study (§3.2): locality of bug traces\n");
    print_table(
        &["Trace kind", "Count", "Share", "Paper"],
        &[
            vec![
                "confined to patched function".into(),
                confined.to_string(),
                format!("{:.1}%", 100.0 * confined as f64 / total as f64),
                "34.8%".into(),
            ],
            vec![
                "crossing function boundaries".into(),
                crossing.to_string(),
                format!("{:.1}%", 100.0 * crossing as f64 / total as f64),
                "65.2%".into(),
            ],
        ],
    );
    // The conclusion follows the measured split, not the paper's.
    let crossing_share = 100.0 * crossing as f64 / total as f64;
    let who = if crossing > confined {
        "the majority"
    } else {
        "a minority"
    };
    println!(
        "\nConclusion (paper §3.2 C1): {crossing_share:.1}% of traces leave the patched\n\
         function ({who}; paper 65.2%). An analysis confined to the patched\n\
         function misses them, so inter-procedural analysis is still required."
    );
    if crossing_share < 65.2 {
        println!(
            "The share is below the paper's because the synthetic corpus has more\n\
             single-function patches than the kernel's patch population."
        );
    }
}
