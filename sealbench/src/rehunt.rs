//! `rehunt_cached_10pct`: a developer re-running `seal hunt --cache-dir`
//! after an edit. Set-up writes the 1x tree, populates the store with one
//! full hunt, then edits it: every tenth patch pair gains a helper
//! function and one line is inserted before the last tenth of
//! `kernel.c`. Each op restores the populated store (untimed) and runs
//! the CLI over the edited tree, so the store serves reads and writes in
//! the same op and compute runs only for what the edit invalidates.
//!
//! Chosen as the cache workload: store open and scan, key hashing, shard
//! lookup and flush run on every op, which `hunt_cold_4x` never
//! exercises.

use crate::common::{
    corpus_config, items, missed_bugs, per_second, read, repeat_setup, report_functions, run_child,
    seal_bin, timed_loop, traced_loop, traced_report, write_padded, EndToEnd, WorkDir, SETUP_REPS,
};
use crate::ledger::Ledger;
use crate::report::RunReport;
use crate::speed::Speed;
use crate::stats::{median, tail_percentile};
use crate::RunArgs;
use seal::core::AnalysisCache;
use seal::corpus::ledger::SeededBug;
use seal::obs::span;
use seal::request::{run_request, RequestKind, RunCtx};
use seal_store::{CacheMode, STORE_FILE};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Drivers per template: the 1x tree.
const DRIVERS: usize = 60;

/// The fewest ops a 20 s run timed on the reference host (2 CPUs); fixes
/// the tail percentile (p90).
const FROZEN_OPS: usize = 110;

/// The edited tree and the populated store, removed when dropped.
struct Inputs {
    root: PathBuf,
    pre: Vec<String>,
    post: Vec<String>,
    target: String,
    store: PathBuf,
    pristine: PathBuf,
    ground_truth: Vec<SeededBug>,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Inputs {
    fn request(&self) -> RequestKind {
        RequestKind::Hunt {
            pre: self.pre.clone(),
            post: self.post.clone(),
            id: "patch".to_string(),
            target: vec![self.target.clone()],
        }
    }

    /// Puts the populated store back, undoing the previous op's writes.
    fn restore(&self) -> Result<(), String> {
        std::fs::copy(&self.pristine, self.store.join(STORE_FILE))
            .map(drop)
            .map_err(|e| format!("cannot restore the store: {e}"))
    }
}

fn setup(root: PathBuf, seed: u64) -> Result<Inputs, String> {
    let corpus = seal::corpus::generate(&corpus_config(seed, DRIVERS));
    let tree = seal::corpus::files::write_to_dir(&corpus, &root)
        .map_err(|e| format!("cannot write the corpus tree: {e}"))?;
    let path = |p: &PathBuf| p.display().to_string();
    let inputs = Inputs {
        pre: tree.patch_files.iter().map(|(_, p, _)| path(p)).collect(),
        post: tree.patch_files.iter().map(|(_, _, p)| path(p)).collect(),
        target: path(&tree.kernel_files[0]),
        store: root.join("store"),
        pristine: root.join("store.pristine"),
        ground_truth: corpus.ground_truth,
        root,
    };
    // Populate the store with the request a first `seal hunt
    // --cache-dir` makes; it writes the same records.
    let cache = AnalysisCache::open(&inputs.store, CacheMode::ReadWrite)
        .map_err(|e| format!("cannot open the store: {e}"))?;
    let ctx = RunCtx { cache, jobs: 1 };
    run_request(&ctx, &inputs.request())?;
    ctx.cache
        .flush()
        .map_err(|e| format!("cannot flush the store: {e}"))?;
    std::fs::copy(inputs.store.join(STORE_FILE), &inputs.pristine)
        .map_err(|e| format!("cannot copy the store: {e}"))?;

    for path in inputs
        .pre
        .iter()
        .step_by(10)
        .chain(inputs.post.iter().step_by(10))
    {
        let path = Path::new(path);
        write_padded(path, &read(path)?, "edit")?;
    }
    insert_line_before_last_tenth(&inputs.target)?;
    Ok(inputs)
}

/// Inserts an empty line before the line at 90% of the file: the program
/// is unchanged, but every function and global below the line moves, so
/// every cache key that covers a position below it misses.
fn insert_line_before_last_tenth(path: &str) -> Result<(), String> {
    let text = read(Path::new(path))?;
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let at = lines.len() * 9 / 10;
    let mut out = String::with_capacity(text.len() + 1);
    for (i, line) in lines.iter().enumerate() {
        if i == at {
            out.push('\n');
        }
        out.push_str(line);
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The in-process replay of one op for the traced run: the calls the CLI
/// makes, each in a `bench.*` span.
fn replay(inputs: &Inputs) -> Result<(f64, String), String> {
    inputs.restore()?;
    let t0 = Instant::now();
    let op = span!("bench.op");
    let cache = {
        let _s = span!("bench.store.open");
        AnalysisCache::open(&inputs.store, CacheMode::ReadWrite)
    }
    .map_err(|e| format!("cannot open the store: {e}"))?;
    let ctx = RunCtx { cache, jobs: 1 };
    let result = {
        let _s = span!("bench.request");
        run_request(&ctx, &inputs.request())
    }?;
    {
        let _s = span!("bench.store.flush");
        ctx.cache.flush()
    }
    .map_err(|e| format!("cannot flush the store: {e}"))?;
    drop(op);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(f) = result.failures.first() {
        return Err(format!("item {} failed [{}]: {}", f.id, f.stage, f.message));
    }
    let bytes = std::fs::metadata(inputs.store.join(STORE_FILE)).map_or(0, |m| m.len());
    seal::obs::metrics::counter_add("store.bytes", bytes);
    Ok((ms, result.stdout))
}

pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let seal = seal_bin()?;
    let dir = WorkDir::new("rehunt_cached_10pct")?;
    let mut speed = (!args.trace).then(|| Speed::start(1));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut rep = 0;
    let (inputs, setup_times) = repeat_setup(reps, speed.as_mut(), || {
        rep += 1;
        setup(dir.join(&format!("rep{rep}")), args.seed)
    })?;

    // Every op must print the same bytes; the first is checked against
    // the uncached reference once the loop is over.
    let mut first: Option<String> = None;
    let mut mismatches = 0u64;
    let mut check = |stdout: String| match &first {
        None => first = Some(stdout),
        Some(f) if *f != stdout => mismatches += 1,
        Some(_) => {}
    };
    let mut peaks_kb = Vec::new();
    let mut report = match speed.as_mut() {
        None => {
            let mut ledger = Ledger::default();
            let (plain, with_trace) = traced_loop(args.seconds, &mut ledger, || {
                let (ms, stdout) = replay(&inputs)?;
                check(stdout);
                Ok(ms)
            });
            traced_report(&ledger, 1, &plain, &with_trace)
        }
        Some(speed) => {
            let stderr = dir.join("seal.stderr");
            let m = timed_loop(args.seconds, speed, || {
                inputs.restore()?;
                let mut cmd = Command::new(&seal);
                cmd.args(["hunt", "--jobs", "1", "--cache-dir"])
                    .arg(&inputs.store)
                    .args(["--pre", &inputs.pre.join(",")])
                    .args(["--post", &inputs.post.join(",")])
                    .args(["--target", &inputs.target])
                    .env_remove("SEAL_CACHE_DIR")
                    .env_remove("SEAL_CACHE")
                    .env_remove("SEAL_JOBS");
                let out = run_child(&mut cmd, &stderr)?;
                peaks_kb.push(out.peak_kb as f64);
                check(out.stdout);
                Ok(out.wall_s * 1e3)
            });
            let e2e = EndToEnd {
                setup: setup_times,
                items_per_s: per_second(items(&corpus_config(args.seed, DRIVERS)), &m.latency_ms),
                tail_pct: tail_percentile(FROZEN_OPS),
                peak_kb: median(&peaks_kb),
                host_speed: speed.host_speed(),
                ops: m,
            };
            e2e.report()
        }
    };

    let uncached = RunCtx {
        cache: AnalysisCache::disabled(),
        jobs: 1,
    };
    let reference = run_request(&uncached, &inputs.request())?.stdout;
    if mismatches > 0 {
        report
            .failed_checks
            .push(format!("{mismatches} op(s) printed different reports"));
    }
    if first.is_some_and(|f| f != reference) {
        report
            .failed_checks
            .push("cached output differs from the uncached in-process run_request".to_string());
    }
    if let Some(missed) = missed_bugs(&report_functions(&reference), &inputs.ground_truth) {
        report.failed_checks.push(missed);
    }
    Ok(report)
}
