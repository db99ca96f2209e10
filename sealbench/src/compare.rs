//! `sealbench compare <runA> <runB>`: compares two run sets (directories
//! written with `--out`) metric by metric against the bounds in
//! `BENCHMARK.json`.
//!
//! Runs are paired by seed: both sets must hold the same seeds, and each
//! seed's value in B is compared with its value in A. Pairing takes the
//! differences between seeds' inputs out of the comparison, so a metric
//! that is fixed for a given seed (precision, recall, failed ops) compares
//! exactly. The verdict for each (workload, end-to-end metric) comes from
//! the median of the per-seed relative differences: `within` the bound,
//! `worse` or `better` by more than it, or `unresolved` when the quartile
//! distance of those differences exceeds the bound and the seeds do not
//! all move the same way.
//!
//! Two more checks judge each set the way a single, unpaired run set is
//! judged: the quartile distance of its values over their median (the
//! spread; not checked for `setup_s`) must stay within the bound, and B's
//! median may not be worse than A's by more than the bound.

use crate::stats::{median, quartiles};
use seal::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The file `--out` appends to inside a run-set directory.
pub const RESULTS_FILE: &str = "results.jsonl";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    Unresolved,
}

/// Quartile distance as a share of the median (0 for fewer than two
/// values or no spread).
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(xs);
    let m = median(xs).abs();
    if q3 == q1 {
        0.0
    } else if m > 0.0 {
        (q3 - q1) / m
    } else {
        f64::INFINITY
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better; infinite when `a` is 0 and `b` is not).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let rel = if a != 0.0 {
        (b - a) / a.abs()
    } else if b == a {
        0.0
    } else {
        (b - a).signum() * f64::INFINITY
    };
    if lower_is_better {
        rel
    } else {
        -rel
    }
}

/// The verdict for one metric from its per-seed `(a, b)` pairs, with the
/// median per-seed worsening of B and the quartile distance of the
/// per-seed worsenings. Without `judge_spread`, that distance is not
/// judged.
pub fn verdict(
    pairs: &[(f64, f64)],
    bound: f64,
    lower_is_better: bool,
    judge_spread: bool,
) -> (Verdict, f64, f64) {
    let diffs: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| worse_by(a, b, lower_is_better))
        .collect();
    if diffs.iter().any(|d| d.is_infinite()) {
        // A value that was 0 moved, such as the first failed op.
        let v = if diffs.iter().any(|d| *d > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Better
        };
        return (v, median(&diffs), f64::INFINITY);
    }
    let worse = median(&diffs);
    let iqr = if diffs.len() >= 2 {
        let [q1, _, q3] = quartiles(&diffs);
        q3 - q1
    } else {
        0.0
    };
    let noisy = judge_spread && iqr > bound;
    let v = if noisy {
        if diffs.iter().all(|d| *d < 0.0) {
            Verdict::Better
        } else if diffs.iter().all(|d| *d > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (v, worse, iqr)
}

/// End-to-end metrics from `BENCHMARK.json`: (name, lower is better, bound).
fn bounds(bench: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(bench)
        .map_err(|e| format!("cannot read {}: {e}", bench.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
    let list = j
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_num);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "lower", x)),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// Untraced values per (workload, metric) of one run set, by seed.
type RunSet = BTreeMap<(String, String), BTreeMap<u64, f64>>;

fn load(dir: &Path) -> Result<RunSet, String> {
    let path = dir.join(RESULTS_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = RunSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let j = Json::parse(line).map_err(|e| format!("{}: {e}: {line}", path.display()))?;
        if j.get("trace").and_then(Json::as_num) != Some(0.0) {
            continue;
        }
        let field = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(w), Some(m), Some(seed), Some(v)) = (
            field("workload"),
            field("metric"),
            j.get("seed").and_then(Json::as_num),
            j.get("value").and_then(Json::as_num),
        ) else {
            return Err(format!("{}: malformed record {line}", path.display()));
        };
        let seeds = out.entry((w, m)).or_default();
        if seeds.insert(seed as u64, v).is_some() {
            return Err(format!(
                "{}: seed {seed} measured twice: {line}",
                path.display()
            ));
        }
    }
    Ok(out)
}

/// `median [q1, q3] (n)` of a set's values.
fn cell(xs: &[f64]) -> String {
    let [q1, _, q3] = if xs.len() >= 2 {
        quartiles(xs)
    } else {
        [xs[0]; 3]
    };
    format!("{:.4} [{:.4}, {:.4}] ({})", median(xs), q1, q3, xs.len())
}

/// Prints the comparison; returns whether every pair is within its bound
/// (or better) and passes both unpaired checks.
pub fn run(a: &Path, b: &Path, bench: &Path) -> Result<bool, String> {
    let mut metrics = bounds(bench)?;
    // Failed ops are not an end-to-end metric (they must stay at zero, and
    // the contract's metrics are never zero), but a run set that starts
    // failing is a regression: bound 0.
    metrics.push(("failed_frac".to_string(), true, 0.0));
    let (ra, rb) = (load(a)?, load(b)?);
    let mut workloads: Vec<&String> = ra.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    println!(
        "{:<20} {:<15} {:>30} {:>30} {:>8} {:>7} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "paired",
        "p. IQR",
        "medians",
        "bound",
        "sprd A",
        "sprd B"
    );
    let mut ok = true;
    for w in workloads {
        for (m, lower, bound) in &metrics {
            let key = (w.clone(), m.clone());
            let (Some(sa), Some(sb)) = (ra.get(&key), rb.get(&key)) else {
                println!("{w:<20} {m:<15} missing from one of the run sets");
                ok = false;
                continue;
            };
            if sa.keys().ne(sb.keys()) {
                println!("{w:<20} {m:<15} the run sets hold different seeds");
                ok = false;
                continue;
            }
            let pairs: Vec<(f64, f64)> = sa.values().copied().zip(sb.values().copied()).collect();
            let (xa, xb): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
            let judge_spread = m != "setup_s";
            let (v, paired, paired_iqr) = verdict(&pairs, *bound, *lower, judge_spread);
            let medians = worse_by(median(&xa), median(&xb), *lower);
            let (spread_a, spread_b) = (spread(&xa), spread(&xb));
            let mut flags = Vec::new();
            if judge_spread && spread_a.max(spread_b) > *bound {
                flags.push("spread above bound");
            }
            if medians > *bound {
                flags.push("median worse");
            }
            ok &= matches!(v, Verdict::Within | Verdict::Better) && flags.is_empty();
            let signed = |x: f64| if *lower { x } else { -x } * 100.0;
            println!(
                "{w:<20} {m:<15} {:>30} {:>30} {:>+7.2}% {:>6.2}% {:>+7.2}% {:>5.1}% {:>6.2}% {:>6.2}%  {}{}",
                cell(&xa),
                cell(&xb),
                signed(paired),
                paired_iqr * 100.0,
                signed(medians),
                bound * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                format!("{v:?}").to_lowercase(),
                if flags.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", flags.join(", "))
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let near = [101.0, 102.0, 100.0, 101.5, 100.5];
        assert_eq!(
            verdict(&pairs(&a, &near), 0.05, true, true).0,
            Verdict::Within
        );
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&pairs(&a, &slow), 0.05, true, true).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&pairs(&a, &slow), 0.05, false, true).0,
            Verdict::Better
        );
        // Differences spread wider than the bound leave a change
        // unresolved...
        let noisy = [80.0, 140.0, 100.0, 60.0, 120.0];
        assert_eq!(
            verdict(&pairs(&a, &noisy), 0.05, true, true).0,
            Verdict::Unresolved
        );
        // ...unless every seed moved the same way.
        let wide_fast = [10.0, 30.0, 20.0, 25.0, 15.0];
        assert_eq!(
            verdict(&pairs(&a, &wide_fast), 0.05, true, true).0,
            Verdict::Better
        );
        // Without judging the spread, only the median difference counts.
        assert_eq!(
            verdict(&pairs(&a, &noisy), 0.05, true, false).0,
            Verdict::Within
        );
        let (_, worse, iqr) = verdict(&pairs(&a, &slow), 0.05, true, true);
        assert!((worse - 0.2).abs() < 1e-3);
        assert!(iqr < 0.01);
    }

    #[test]
    fn pairing_by_seed_removes_differences_between_seeds() {
        // Values that differ by 10% from seed to seed but repeat exactly
        // per seed compare as equal, even under a bound of 0.
        let a = [0.62, 0.70, 0.66, 0.68, 0.64];
        assert_eq!(
            verdict(&pairs(&a, &a), 0.0, false, true),
            (Verdict::Within, 0.0, 0.0)
        );
        // One seed losing precision is a regression under a bound of 0.
        let mut b = a;
        b[2] = 0.65;
        assert_eq!(
            verdict(&pairs(&a, &b), 0.0, false, true).0,
            Verdict::Unresolved
        );
        let lower: Vec<f64> = a.iter().map(|x| x - 0.01).collect();
        assert_eq!(
            verdict(&pairs(&a, &lower), 0.0, false, true).0,
            Verdict::Worse
        );
    }

    #[test]
    fn zero_bound_zero_values_are_within_and_any_failure_is_worse() {
        assert_eq!(
            verdict(&pairs(&[0.0; 4], &[0.0; 4]), 0.0, true, true).0,
            Verdict::Within
        );
        assert_eq!(
            verdict(&pairs(&[0.0; 4], &[0.0, 0.0, 0.1, 0.0]), 0.0, true, true).0,
            Verdict::Worse
        );
    }
}
