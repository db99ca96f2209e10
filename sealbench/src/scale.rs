//! `scale_stream_10x`: one op is `seal scale-run --scale 10 --mode
//! streamed --max-rss-mb 0 --jobs 2`, the 10x corpus streamed through
//! chunked compile, inference and detection with every chunk spilled to
//! disk. Set-up runs the same corpus materialized once, as the reference
//! report fingerprint.
//!
//! Chosen as the scale workload: the only one where streamed generation,
//! chunk compilation, spill writes and reads, and the jobs = 2 pool all
//! cost, and where peak RSS is the number its users care about.

use crate::common::{
    per_second, repeat_setup, run_child, seal_bin, timed_loop, traced_loop, traced_report,
    EndToEnd, WorkDir, SETUP_REPS,
};
use crate::ledger::Ledger;
use crate::report::RunReport;
use crate::speed::Speed;
use crate::stats::{median, tail_percentile};
use crate::RunArgs;
use seal::json::Json;
use seal::obs::span;
use seal::scale::{reports_fingerprint, ScaleOptions, ScaleRun};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Corpus multiplier.
const SCALE: usize = 10;

/// Pool workers (the host's 2 CPUs).
const JOBS: usize = 2;

/// The fewest ops a 20 s run timed on the reference host (2 CPUs); fixes
/// the tail percentile (p50: too few ops for a higher rung).
const FROZEN_OPS: usize = 13;

/// The summary line of one `seal scale-run`.
struct Summary {
    fingerprint: String,
    items: usize,
    precision: f64,
    recall: f64,
    rss_peak_kb: f64,
    store_errors: f64,
}

fn scale_run(
    seal: &Path,
    seed: u64,
    args: &[&str],
    stderr: &Path,
) -> Result<(f64, Summary), String> {
    let mut cmd = Command::new(seal);
    cmd.args([
        "scale-run",
        "--scale",
        &SCALE.to_string(),
        "--jobs",
        &JOBS.to_string(),
    ])
    .args(["--seed", &seed.to_string()])
    .args(args);
    let out = run_child(&mut cmd, stderr)?;
    let line = out.stdout.lines().last().unwrap_or_default();
    let j = Json::parse(line).map_err(|e| format!("bad scale-run summary `{line}`: {e}"))?;
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("scale-run summary has no `{key}`"))
    };
    let summary = Summary {
        fingerprint: j
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("scale-run summary has no `fingerprint`")?
            .to_string(),
        items: (num("drivers")? + num("patches")?) as usize,
        precision: num("precision")?,
        recall: num("recall")?,
        rss_peak_kb: num("rss_peak_kb")?,
        store_errors: num("store_errors")?,
    };
    Ok((out.wall_s * 1e3, summary))
}

/// One op of the traced run: the two phases `scale-run` drives, in
/// process, each in a `bench.*` span.
fn in_process(seed: u64, spill: &Path) -> Result<(f64, String), String> {
    let _ = std::fs::remove_dir_all(spill);
    let mut config = seal::scale::eval_base_config();
    config.seed = seed;
    config.scale = SCALE;
    let opts = ScaleOptions {
        config,
        jobs: JOBS,
        streamed: true,
        max_rss_mb: Some(0),
        spill_dir: Some(spill.to_path_buf()),
        ..ScaleOptions::default()
    };
    let t0 = Instant::now();
    let op = span!("bench.op");
    let prepared = {
        let _s = span!("bench.scale.prepare");
        ScaleRun::prepare(opts)
    }
    .map_err(|e| format!("scale prepare failed: {e}"))?;
    let out = {
        let _s = span!("bench.scale.finish");
        prepared.finish()
    }
    .map_err(|e| format!("scale finish failed: {e}"))?;
    drop(op);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(e) = out.store_errors.first() {
        return Err(format!("spill reload failed: {e}"));
    }
    seal::obs::metrics::counter_add("scale.chunks", out.chunks as u64);
    Ok((ms, format!("{:016x}", reports_fingerprint(&out.reports))))
}

pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let seal = seal_bin()?;
    let dir = WorkDir::new("scale_stream_10x")?;
    let stderr = dir.join("seal.stderr");
    let spill: PathBuf = dir.join("spill");
    let mut speed = (!args.trace).then(|| Speed::start(JOBS));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (reference, setup_times) = repeat_setup(reps, speed.as_mut(), || {
        scale_run(&seal, args.seed, &["--mode", "materialized"], &stderr).map(|(_, s)| s)
    })?;

    let mut failed_checks = Vec::new();
    if reference.recall != 1.0 {
        failed_checks.push(format!(
            "recall {} against the ledger, expected 1.0",
            reference.recall
        ));
    }
    let mut mismatches = 0u64;
    let mut check = |fingerprint: &str| {
        if fingerprint != reference.fingerprint {
            mismatches += 1;
        }
    };

    let mut report = match speed.as_mut() {
        None => {
            let mut ledger = Ledger::default();
            let (plain, with_trace) = traced_loop(args.seconds, &mut ledger, || {
                let (ms, fingerprint) = in_process(args.seed, &spill)?;
                check(&fingerprint);
                Ok(ms)
            });
            traced_report(&ledger, JOBS, &plain, &with_trace)
        }
        Some(speed) => {
            let spill_arg = spill.display().to_string();
            let streamed = [
                "--mode",
                "streamed",
                "--max-rss-mb",
                "0",
                "--spill-dir",
                &spill_arg,
            ];
            let mut peaks_kb = Vec::new();
            let mut summary_differs = 0u64;
            let m = timed_loop(args.seconds, speed, || {
                let _ = std::fs::remove_dir_all(&spill);
                let (ms, s) = scale_run(&seal, args.seed, &streamed, &stderr)?;
                if s.store_errors > 0.0 {
                    return Err(format!("{} spill reload(s) failed", s.store_errors));
                }
                check(&s.fingerprint);
                if s.precision != reference.precision || s.recall != reference.recall {
                    summary_differs += 1;
                }
                peaks_kb.push(s.rss_peak_kb);
                Ok(ms)
            });
            if summary_differs > 0 {
                failed_checks.push(format!(
                    "{summary_differs} streamed run(s) scored differently from the materialized one"
                ));
            }
            let e2e = EndToEnd {
                setup: setup_times,
                items_per_s: per_second(reference.items, &m.latency_ms),
                tail_pct: tail_percentile(FROZEN_OPS),
                peak_kb: median(&peaks_kb),
                host_speed: speed.host_speed(),
                ops: m,
            };
            e2e.report()
        }
    };
    if mismatches > 0 {
        failed_checks.push(format!(
            "{mismatches} run(s) reported a fingerprint other than the materialized reference"
        ));
    }
    report.failed_checks = failed_checks;
    Ok(report)
}
