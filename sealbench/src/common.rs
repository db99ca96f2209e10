//! What the workloads share: inputs from the seed, a scratch directory
//! inside the checkout, child processes with their peak RSS, tracing, and
//! the end-to-end metric set.

use crate::ledger::Ledger;
use crate::report::{Metric, RunReport};
use crate::speed::Speed;
use crate::stats::{median, percentile};
use seal::corpus::ledger::SeededBug;
use seal::corpus::CorpusConfig;
use seal::obs::{MetricsSnapshot, Trace, TraceData};
use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// The corpus every workload generates from its seed: the evaluation
/// shape (6 patches per template, 20 refactors, 18% seeded bugs) with
/// `drivers` implementations per template (60 is the 1x tree).
pub fn corpus_config(seed: u64, drivers: usize) -> CorpusConfig {
    CorpusConfig {
        seed,
        drivers_per_template: drivers,
        bug_rate: 0.18,
        patches_per_template: 6,
        refactor_patches: 20,
        scale: 1,
    }
}

/// Analysed items in one pass over a corpus: patches plus target drivers.
pub fn items(config: &CorpusConfig) -> usize {
    seal::corpus::stream::total_drivers(config) + seal::corpus::stream::total_patches(config)
}

/// A scratch directory under `.sealbench_work/` in the working directory
/// (the checkout root), removed when dropped. Paths stay relative so the
/// daemon's socket path stays short wherever the checkout lives.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh directory for one workload run.
    pub fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".sealbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds when empty
        }
    }
}

/// The `seal` CLI built next to this binary. Its absence is an error, not
/// a skipped workload.
pub fn seal_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate sealbench: {e}"))?;
    let bin = exe.with_file_name("seal");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing: build it with `cargo build --release --offline --bin seal` \
             into the same target directory (sealbench/run.sh does)",
            bin.display()
        ))
    }
}

/// A finished child process.
pub struct ChildRun {
    /// Wall time from spawn to exit, seconds.
    pub wall_s: f64,
    /// Standard output.
    pub stdout: String,
    /// Peak RSS of the program the child runs, KiB (see [`run_child`]).
    pub peak_kb: u64,
}

/// How often [`run_child`] reads a running child's peak RSS.
const RSS_POLL: Duration = Duration::from_millis(2);

/// Runs `cmd` to completion with stdout captured and stderr written to
/// `stderr_to`. A nonzero exit (or death by signal) is an `Err` carrying
/// the tail of stderr.
///
/// The child's peak RSS is its `VmHWM`, read every [`RSS_POLL`] while it
/// runs; growth in its last poll interval is missed. `wait4`'s `ru_maxrss`
/// would be exact to the end but is not the child's own: Linux carries
/// the peak of the address space the child leaves at `exec` into it, and
/// that space is this process's.
pub fn run_child(cmd: &mut Command, stderr_to: &Path) -> Result<ChildRun, String> {
    let stderr = std::fs::File::create(stderr_to)
        .map_err(|e| format!("cannot create {}: {e}", stderr_to.display()))?;
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    // The pid stays the child's until `wait` below reaps it, after the
    // poller has stopped.
    let pid = child.id().to_string();
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let (stop, stopped) = mpsc::channel::<()>();
    let mut stdout = String::new();
    let (read, peak_kb) = std::thread::scope(|s| {
        let poller = s.spawn(move || {
            let mut peak = 0;
            loop {
                // Fails once the child has exited; its last peak is kept.
                if let Ok(kb) = peak_rss_kb(&pid) {
                    peak = peak.max(kb);
                }
                // Wakes at once when `stop` is dropped, so stopping adds
                // nothing to the child's measured wall time.
                if stopped.recv_timeout(RSS_POLL) != Err(RecvTimeoutError::Timeout) {
                    return peak;
                }
            }
        });
        let read = pipe.read_to_string(&mut stdout);
        drop(stop);
        (read, poller.join().expect("the RSS poller does not panic"))
    });
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for {cmd:?}: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    read.map_err(|e| format!("cannot read child stdout: {e}"))?;
    if !status.success() {
        let err = std::fs::read_to_string(stderr_to).unwrap_or_default();
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        return Err(format!(
            "{cmd:?} exited with {status}: {}",
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    Ok(ChildRun {
        wall_s,
        stdout,
        peak_kb,
    })
}

/// Resets the peak RSS (`VmHWM`) of a process (`"self"` or a pid) to its
/// current RSS, so a later [`peak_rss_kb`] covers only what came after.
pub fn reset_peak_rss(pid: &str) -> Result<(), String> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
        .map_err(|e| format!("cannot reset the peak RSS of {pid}: {e}"))
}

/// `VmHWM` of a process (`"self"` or a pid), KiB.
pub fn peak_rss_kb(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
}

/// Runs `f` with a fresh trace installed and the metrics registry on.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, TraceData, MetricsSnapshot) {
    seal::obs::metrics::enable();
    let trace = Trace::install().expect("workloads never nest traces");
    let out = f();
    let data = trace.finish();
    (out, data, seal::obs::metrics::take())
}

/// How often set-up runs per untraced workload run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;

/// Set-up times of one run, seconds.
#[derive(Default)]
pub struct SetupTimes {
    /// Each repetition scaled to the reference host speed (see `speed.rs`).
    pub scaled_s: Vec<f64>,
    /// Each repetition's wall time.
    pub wall_s: Vec<f64>,
}

/// Runs `setup` `reps` times, timing each, and keeps the last result. The
/// previous result is dropped (torn down) before the next repetition
/// starts, outside the timed span. With `speed`, each repetition is
/// followed by a probe and its time scaled.
pub fn repeat_setup<T>(
    reps: usize,
    mut speed: Option<&mut Speed>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut last = None;
    let mut times = SetupTimes::default();
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        let s = t0.elapsed().as_secs_f64();
        let factor = speed.as_mut().map_or(1.0, |sp| sp.factor_after(s * 1e3));
        times.wall_s.push(s);
        times.scaled_s.push(s * factor);
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Traced ops (and as many untraced ones) a traced run takes at least.
pub const MIN_TRACED_OPS: u64 = 5;

/// Ops of one closed loop.
#[derive(Default)]
pub struct Measured {
    /// Latency of each op that succeeded, ms; in a timed run scaled to the
    /// reference host speed (see `speed.rs`).
    pub latency_ms: Vec<f64>,
    /// Wall time of each op that succeeded, ms.
    pub wall_ms: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
}

impl Measured {
    /// Adds another loop's ops.
    pub fn absorb(&mut self, other: Measured) {
        self.latency_ms.extend(other.latency_ms);
        self.wall_ms.extend(other.wall_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts one op: its wall time, scaled by `factor`, or its failure
    /// (logged).
    pub fn record(&mut self, r: Result<f64, String>, factor: f64) {
        self.attempted += 1;
        match r {
            Ok(ms) => {
                self.wall_ms.push(ms);
                self.latency_ms.push(ms * factor);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("sealbench: op failed: {e}");
            }
        }
    }

    /// Scales the latencies recorded from index `from` on by `factor`.
    pub fn scale_from(&mut self, from: usize, factor: f64) {
        for ms in &mut self.latency_ms[from..] {
            *ms *= factor;
        }
    }
}

/// A closed loop for `seconds`: each op starts when the previous one has
/// returned, and is followed by a probe of the host's speed that scales
/// its latency. `op` returns its own wall time in ms, which leaves out
/// untimed per-op preparation such as restoring a store.
pub fn timed_loop(
    seconds: f64,
    speed: &mut Speed,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    while start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let r = op();
        let factor = speed.factor_after(t0.elapsed().as_secs_f64() * 1e3);
        m.record(r, factor);
    }
    m
}

/// The traced run of an in-process workload: for `seconds`, alternates an
/// untraced op with a traced one (one trace per op, booked into
/// `ledger`), so both halves see the same machine and the latency ratio
/// between them is the tracing overhead. Returns (untraced, traced).
pub fn traced_loop(
    seconds: f64,
    ledger: &mut Ledger,
    mut op: impl FnMut() -> Result<f64, String>,
) -> (Measured, Measured) {
    let start = Instant::now();
    let (mut plain, mut with_trace) = (Measured::default(), Measured::default());
    while start.elapsed().as_secs_f64() < seconds || with_trace.attempted < MIN_TRACED_OPS {
        plain.record(op(), 1.0);
        let (r, data, snap) = traced(&mut op);
        if let Ok(ms) = &r {
            ledger.add(1, ms * 1e3, &data, &snap);
        }
        with_trace.record(r, 1.0);
    }
    (plain, with_trace)
}

/// The report of a traced run: the ledger's metrics, and the ops of both
/// halves. `lanes` is how many ops can run at once.
pub fn traced_report(
    ledger: &Ledger,
    lanes: usize,
    plain: &Measured,
    with_trace: &Measured,
) -> RunReport {
    RunReport {
        failed_checks: Vec::new(),
        attempted: plain.attempted + with_trace.attempted,
        failed: plain.failed + with_trace.failed,
        metrics: ledger.metrics(lanes, &with_trace.latency_ms, &plain.latency_ms),
        info: Vec::new(),
    }
}

/// Writes `text` to a patch file with one helper function appended, named
/// after `tag`. Both versions of a patch gain the same helper, so the diff
/// (and so the specs and reports) stay the same while the file's raw and
/// semantic cache keys move.
pub fn write_padded(path: &Path, text: &str, tag: &str) -> Result<(), String> {
    let padded = format!("{text}\nint sealbench_pad_{tag}(int x) {{ return x + 1; }}\n");
    std::fs::write(path, padded).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads a file the benchmark wrote.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Functions named by the reports in `seal hunt`/`detect` stdout. A
/// report's first line reads `[TYPE] explanation in module:function (line N)`.
pub fn report_functions(stdout: &str) -> BTreeSet<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with('['))
        .filter_map(|l| {
            let head = &l[..l.rfind(" (line ")?];
            Some(head[head.rfind(':')? + 1..].to_string())
        })
        .collect()
}

/// The correctness check on recall for workloads that see reports only as
/// CLI text: every seeded bug's function must be among the reported ones
/// (the ledger matches a report to a bug by function name). `None` when
/// recall is 1.0.
pub fn missed_bugs(reported: &BTreeSet<String>, truth: &[SeededBug]) -> Option<String> {
    let missed = truth
        .iter()
        .filter(|b| !reported.contains(&b.function))
        .count();
    (missed > 0).then(|| format!("{missed} of {} seeded bugs not reported", truth.len()))
}

/// Throughput of one closed loop at its median op latency:
/// `items_per_op` items per op. The median, not the mean, so that a burst
/// of host slowness moves it no more than it moves `latency_p50_ms`.
pub fn per_second(items_per_op: usize, latency_ms: &[f64]) -> f64 {
    let ms = median(latency_ms);
    if ms > 0.0 {
        items_per_op as f64 * 1e3 / ms
    } else {
        0.0
    }
}

/// The timed end-to-end metrics of one untraced run.
pub struct EndToEnd {
    /// Set-up time of each repetition.
    pub setup: SetupTimes,
    /// Latency (scaled) and wall time of each timed op.
    pub ops: Measured,
    /// The workload's frozen tail percentile.
    pub tail_pct: f64,
    /// Items (or requests) completed per second (see [`per_second`]).
    pub items_per_s: f64,
    /// Peak RSS of the analysing process during the timed phase, KiB.
    /// Where every op is a process of its own, the median of their peaks.
    pub peak_kb: f64,
    /// The host's median speed over the run (see `speed.rs`).
    pub host_speed: f64,
}

impl EndToEnd {
    /// The report of the untraced run, before its correctness checks.
    pub fn report(&self) -> RunReport {
        RunReport {
            failed_checks: Vec::new(),
            attempted: self.ops.attempted,
            failed: self.ops.failed,
            metrics: self.metrics(),
            info: self.info(),
        }
    }

    /// The metrics in `BENCHMARK.json` order, up to the quality panel's
    /// `precision` and `recall`, which follow them. Times are scaled to
    /// the reference host speed.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "setup_s",
                value: median(&self.setup.scaled_s),
                unit: "s",
            },
            Metric {
                name: "latency_p50_ms",
                value: median(&self.ops.latency_ms),
                unit: "ms",
            },
            Metric {
                name: "items_per_s",
                value: self.items_per_s,
                unit: "1/s",
            },
            Metric {
                name: "rss_peak_mb",
                value: self.peak_kb / 1024.0,
                unit: "MB",
            },
        ]
    }

    /// Printed but not bounded: the sample count, the tail latency at the
    /// percentile that count supports (on a shared host its run-to-run
    /// spread exceeds any bound the benchmark may set), the unscaled wall
    /// times, and the host speed that relates the two.
    pub fn info(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "ops",
                value: self.ops.latency_ms.len() as f64,
                unit: "count",
            },
            Metric {
                name: "tail_percentile",
                value: self.tail_pct,
                unit: "pct",
            },
            Metric {
                name: "latency_tail_ms",
                value: percentile(&self.ops.latency_ms, self.tail_pct),
                unit: "ms",
            },
            Metric {
                name: "wall_setup_s",
                value: median(&self.setup.wall_s),
                unit: "s",
            },
            Metric {
                name: "wall_latency_p50_ms",
                value: median(&self.ops.wall_ms),
                unit: "ms",
            },
            Metric {
                name: "host_speed",
                value: self.host_speed,
                unit: "ratio",
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_functions_reads_cli_report_headers() {
        let out = "2 violation(s):\n\n\
                   [NPD] unchecked deref of kmalloc result in kernel/core/kernel.c:foo_probe (line 12)\n  \
                   witness path via lines: 12 -> 14\n  violated: x\n\n\
                   [Wrong EC] required flow: -12 missing in k.c:bar_init (line 40)\n  violated: y\n\n";
        let got: Vec<String> = report_functions(out).into_iter().collect();
        assert_eq!(got, vec!["bar_init".to_string(), "foo_probe".to_string()]);
        assert!(report_functions("no violations found (3 specs checked)\n").is_empty());
    }

    #[test]
    fn missed_bugs_applies_the_ledgers_function_name_rule() {
        let bug = |f: &str| SeededBug {
            function: f.into(),
            driver: "drv".into(),
            subsystem: "drivers/net".into(),
            bug_type: seal::core::BugType::Npd,
            template: "t".into(),
            latent_years: 1,
        };
        let truth = [bug("a_probe"), bug("b_init")];
        let found = |fs: &[&str]| fs.iter().map(|f| f.to_string()).collect::<BTreeSet<_>>();
        assert_eq!(
            missed_bugs(&found(&["a_probe", "b_init", "fp"]), &truth),
            None
        );
        assert_eq!(
            missed_bugs(&found(&["a_probe"]), &truth).as_deref(),
            Some("1 of 2 seeded bugs not reported")
        );
    }

    #[test]
    fn child_exit_code_and_own_peak_rss_are_reported() {
        // 64 MiB resident here must not show up as the child's peak.
        let ballast = vec![1u8; 64 << 20];
        let dir = WorkDir::new("test-child").unwrap();
        let err = dir.join("stderr");
        let ok = run_child(Command::new("sh").args(["-c", "echo hi; sleep 0.1"]), &err).unwrap();
        assert_eq!(ok.stdout, "hi\n");
        assert!(
            ok.peak_kb > 0 && ok.peak_kb < 32 << 10,
            "{} KiB",
            ok.peak_kb
        );
        std::hint::black_box(&ballast);
        let bad = run_child(
            Command::new("sh").args(["-c", "echo oops >&2; exit 3"]),
            &err,
        );
        let msg = bad.err().unwrap();
        assert!(
            msg.contains("exit status: 3") && msg.contains("oops"),
            "{msg}"
        );
    }
}
