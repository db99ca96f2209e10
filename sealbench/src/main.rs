//! `sealbench` — the repository benchmark.
//!
//! ```text
//! sealbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! sealbench compare RUN_A RUN_B
//! ```
//!
//! A run sets up one workload from its seed, runs its ops in a closed
//! loop for `--seconds`, checks the outputs, and prints one JSON line per
//! metric followed by a summary line
//! `{"correct","attempted","failed","metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ledger of a traced run (see
//! `ledger.rs`). Any failed correctness check or failed op makes the run
//! exit nonzero. Without `--workload`, every workload runs in turn.
//!
//! The program is driven only through its public functions, the `seal`
//! CLI (built next to this binary) and the daemon socket. All files live
//! under `.sealbench_work/` in the working directory.

#[cfg(not(target_os = "linux"))]
compile_error!("sealbench reads memory peaks from Linux procfs");

mod common;
mod compare;
mod hunt;
mod ledger;
mod rehunt;
mod report;
mod scale;
mod serve;
mod speed;
mod stats;

use report::{metric_line, record_line, summary_line, Metric, RunReport};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Settings of one workload run.
pub struct RunArgs {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

type Workload = fn(&RunArgs) -> Result<RunReport, String>;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[(&str, Workload)] = &[
    ("hunt_cold_4x", hunt::run),
    ("rehunt_cached_10pct", rehunt::run),
    ("serve_warm_2c", serve::run),
    ("scale_stream_10x", scale::run),
];

const USAGE: &str = "usage:\n  \
    sealbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n  \
    sealbench compare RUN_A RUN_B   (bounds from ./BENCHMARK.json)\n\
    workloads: hunt_cold_4x, rehunt_cached_10pct, serve_warm_2c, scale_stream_10x";

struct Options {
    workloads: Vec<(&'static str, Workload)>,
    run: RunArgs,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: WORKLOADS.to_vec(),
        run: RunArgs {
            seed: 24225,
            seconds: 20.0,
            trace: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|(n, _)| n == value)
                    .ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?;
                opts.workloads = vec![*w];
            }
            "--seed" => opts.run.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                opts.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Runs one workload and prints its lines; returns whether it passed.
fn run_one(name: &str, workload: Workload, opts: &Options) -> Result<bool, String> {
    let args = &opts.run;
    let mut report = workload(args).map_err(|e| format!("{name}: {e}"))?;
    if !args.trace {
        let quality = hunt::quality_panel().map_err(|e| format!("quality panel: {e}"))?;
        report.metrics.extend(quality);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.info.extend([
        Metric {
            name: "failed_frac",
            value: report.failed as f64 / report.attempted.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "nproc",
            value: nproc as f64,
            unit: "count",
        },
    ]);
    let lines: Vec<&Metric> = report.metrics.iter().chain(&report.info).collect();
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(compare::RESULTS_FILE);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        for m in &lines {
            writeln!(file, "{}", record_line(name, args.seed, args.trace, m))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    for m in &lines {
        println!("{}", metric_line(name, m));
    }
    for c in &report.failed_checks {
        eprintln!("sealbench: {name}: correctness check failed: {c}");
    }
    println!("{}", summary_line(&report));
    Ok(report.failed_checks.is_empty() && report.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("sealbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sealbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_passed = true;
    for &(name, workload) in &opts.workloads {
        match run_one(name, workload, &opts) {
            Ok(passed) => all_passed &= passed,
            Err(e) => {
                eprintln!("sealbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal::json::Json;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list.
    fn listed(j: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<String> = listed(&j, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(workloads, ours);

        let e2e = common::EndToEnd {
            setup: common::SetupTimes::default(),
            ops: common::Measured::default(),
            tail_pct: 50.0,
            items_per_s: 1.0,
            peak_kb: 1.0,
            host_speed: 1.0,
        };
        let printed: Vec<(String, String)> = e2e
            .metrics()
            .iter()
            .chain(&hunt::quality_panel().unwrap())
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed(&j, "end_to_end"), printed);

        let per_layer: Vec<(String, String)> = ledger::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&j, "per_layer"), per_layer);
    }
}
