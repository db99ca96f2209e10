//! Dynamic confirmation — the PoC step of §8.1 ("we have manually
//! triggered one NPD bug…"), mechanized: every statically reported true
//! positive is executed concretely under API fault injection, and the
//! observed runtime fault is compared with the seeded bug class.

use seal::scale::eval_base_config;
use seal_bench::{print_table, run_pipeline};
use seal_core::BugType;
use seal_exec::{FaultPlan, Interp, Outcome, Value};
use std::collections::BTreeMap;

/// How to build one entry argument (materialized per interpreter, since
/// staged objects must live on its heap).
enum Arg {
    /// A plain integer.
    Int(i64),
    /// A fresh heap object of the given size.
    Obj(i64),
}

/// Entry arguments and fault plan for one template's interface entry.
fn entry_args(template: &str) -> Option<(Vec<Arg>, FaultPlan)> {
    match template {
        // Error-code NPD: the DMA allocation fails; the impl swallows it.
        "ec-npd" => Some((
            vec![Arg::Obj(16)],
            FaultPlan::fail_call("dma_alloc_coherent", 0),
        )),
        // Missing NULL check: the devm allocation fails.
        "npd-check" => Some((vec![Arg::Int(7)], FaultPlan::fail_call("devm_kzalloc", 0))),
        // Error-path leak: dsp_start fails after a successful allocation.
        "leak-errpath" => Some((vec![Arg::Int(1)], FaultPlan::fail_call("dsp_start", 0))),
        // Goto-cleanup leak: the property read fails.
        "leak-goto" => Some((
            vec![Arg::Obj(8)],
            FaultPlan::fail_call("of_property_read_u32", 0),
        )),
        // Swallowed error code: parse fails; buggy impls return 0.
        "ec-swallow" => Some((vec![Arg::Int(5)], FaultPlan::fail_call("parse_rate", 0))),
        // Uninit: usb read fails, buggy impls return 0 anyway.
        "uninit-mac" => Some((
            vec![Arg::Obj(8), Arg::Obj(8)],
            FaultPlan::fail_call("usb_read_cmd", 0),
        )),
        // The remaining templates need value-shaped triggers (bad lengths,
        // zero divisors) rather than API failures; the integration tests in
        // `tests/dynamic_confirmation.rs` cover them individually.
        _ => None,
    }
}

/// Per-template tally of the true positives this harness ran.
#[derive(Default)]
struct Tally {
    class: &'static str,
    true_positives: usize,
    attempted: usize,
    confirmed: usize,
}

fn main() {
    let r = run_pipeline(&eval_base_config());
    let module = r.corpus.target_module();

    let mut by_template: BTreeMap<&str, Tally> = BTreeMap::new();
    let mut rows = Vec::new();

    for (func, _ty, _) in &r.score.true_positives {
        let bug = r.corpus.bug_for(func).expect("TPs are seeded");
        let tally = by_template.entry(bug.template.as_str()).or_default();
        tally.class = bug.bug_type.label();
        tally.true_positives += 1;
        let Some((args, plan)) = entry_args(&bug.template) else {
            continue; // value-shaped triggers: skipped here, counted below
        };
        tally.attempted += 1;

        let mut interp = Interp::new(&module, plan);
        let argv: Vec<Value> = args
            .iter()
            .map(|a| match a {
                Arg::Int(v) => Value::Int(*v),
                Arg::Obj(size) => {
                    let obj = interp.heap.alloc(*size, "");
                    Value::Ptr(obj, 0)
                }
            })
            .collect();
        let result = interp.call(func, &argv);
        let hit = match bug.bug_type {
            // NPD manifests as a concrete NULL dereference — in the
            // error-code template it surfaces in the *caller*, so the
            // impl returning success (0) under failure is the trigger.
            BugType::Npd => {
                matches!(result, Err(Outcome::NullDeref { .. })) || result == Ok(Value::Int(0))
            }
            // Leak: normal return but live API allocations remain.
            BugType::MemLeak => result.is_ok() && !interp.leaked_objects().is_empty(),
            // Wrong EC / Uninit: the API failed but the impl reports 0.
            BugType::WrongEc | BugType::Uninit => result == Ok(Value::Int(0)),
            _ => false,
        };
        if hit {
            tally.confirmed += 1;
        }
        if rows.len() < 12 {
            rows.push(vec![
                func.clone(),
                tally.class.to_string(),
                match &result {
                    Ok(v) => format!("returned {v}"),
                    Err(o) => format!("{o:?}"),
                },
                if hit { "CONFIRMED" } else { "unconfirmed" }.to_string(),
            ]);
        }
    }

    println!("Dynamic PoC confirmation (§8.1, mechanized)\n");
    print_table(
        &["Buggy function", "Class", "Concrete outcome", "Verdict"],
        &rows,
    );
    println!("\nby template (true positives: attempted under API fault injection, or skipped):\n");
    let mut table = Vec::new();
    let (mut tps, mut attempted, mut confirmed) = (0, 0, 0);
    for (template, t) in &by_template {
        tps += t.true_positives;
        attempted += t.attempted;
        confirmed += t.confirmed;
        table.push(vec![
            template.to_string(),
            t.class.to_string(),
            t.true_positives.to_string(),
            t.attempted.to_string(),
            (t.true_positives - t.attempted).to_string(),
            format!("{}/{}", t.confirmed, t.attempted),
        ]);
    }
    print_table(
        &[
            "Template",
            "Class",
            "True positives",
            "Attempted",
            "Skipped",
            "Confirmed",
        ],
        &table,
    );
    println!(
        "\noverall: {confirmed}/{attempted} attempted true positives reproduced concretely\n\
         under injected API failures; {} of {tps} true positives skipped (their\n\
         templates need value-shaped triggers, covered per template in\n\
         tests/dynamic_confirmation.rs). Paper: one NPD triggered manually.",
        tps - attempted
    );
}
