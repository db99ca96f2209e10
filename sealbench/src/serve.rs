//! `serve_warm_2c`: a `seal serve --listen --jobs 1` daemon answering two
//! client connections. Each client owns half of the 1x patches and sends
//! one single-patch `hunt` request at a time, waiting for each verdict (a
//! closed loop). Before each pass over its half, a client rewrites every
//! tenth of its patch files (untimed) as the original plus one helper
//! named after the pass, so those requests miss the warm layer while the
//! rest hit it, and every pass does the same work.
//!
//! Chosen as the warm-daemon workload: protocol, request path and the
//! warm LRU dominate, and both cores are used through connections rather
//! than the worker pool.

use crate::common::{
    corpus_config, missed_bugs, peak_rss_kb, per_second, read, repeat_setup, report_functions,
    reset_peak_rss, seal_bin, traced, traced_report, write_padded, EndToEnd, Measured, WorkDir,
    MIN_TRACED_OPS, SETUP_REPS,
};
use crate::ledger::Ledger;
use crate::report::RunReport;
use crate::speed::Speed;
use crate::stats::tail_percentile;
use crate::RunArgs;
use seal::core::{AnalysisCache, WarmMemory};
use seal::corpus::ledger::SeededBug;
use seal::json::{escape, Json};
use seal::request::{run_request, RequestKind, RunCtx};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Drivers per template: the 1x tree.
const DRIVERS: usize = 60;

/// Client connections (at most the host's 2 CPUs).
const CLIENTS: usize = 2;

/// The fewest requests a 20 s run timed on the reference host (2 CPUs);
/// fixes the tail percentile (p99).
const FROZEN_OPS: usize = 4_707;

/// The 1x tree, removed when dropped.
struct Tree {
    root: PathBuf,
    /// `(pre, post)` paths per patch.
    items: Vec<(String, String)>,
    /// `(pre, post)` text per patch, as generated.
    pristine: Vec<(String, String)>,
    target: String,
    ground_truth: Vec<SeededBug>,
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Tree {
    fn write(root: PathBuf, seed: u64) -> Result<Tree, String> {
        let corpus = seal::corpus::generate(&corpus_config(seed, DRIVERS));
        let tree = seal::corpus::files::write_to_dir(&corpus, &root)
            .map_err(|e| format!("cannot write the corpus tree: {e}"))?;
        let path = |p: &PathBuf| p.display().to_string();
        let pristine = tree
            .patch_files
            .iter()
            .map(|(_, pre, post)| Ok((read(pre)?, read(post)?)))
            .collect::<Result<_, String>>()?;
        Ok(Tree {
            items: tree
                .patch_files
                .iter()
                .map(|(_, pre, post)| (path(pre), path(post)))
                .collect(),
            pristine,
            target: path(&tree.kernel_files[0]),
            ground_truth: corpus.ground_truth,
            root,
        })
    }

    fn request(&self, item: usize) -> RequestKind {
        let (pre, post) = &self.items[item];
        RequestKind::Hunt {
            pre: vec![pre.clone()],
            post: vec![post.clone()],
            id: "patch".to_string(),
            target: vec![self.target.clone()],
        }
    }

    fn request_line(&self, item: usize) -> String {
        let (pre, post) = &self.items[item];
        format!(
            "{{\"cmd\":\"hunt\",\"pre\":[\"{}\"],\"post\":[\"{}\"],\"target\":[\"{}\"]}}",
            escape(pre),
            escape(post),
            escape(&self.target)
        )
    }
}

/// The daemon under test: a `seal serve` child process, or (for the
/// traced run) `seal::serve::serve` on a thread of this process, so the
/// benchmark can install a trace around chosen passes. Stopped on drop.
struct Daemon {
    sock: PathBuf,
    child: Option<Child>,
    thread: Option<JoinHandle<Result<bool, String>>>,
}

impl Daemon {
    fn spawn(seal: &Path, sock: PathBuf, stderr: &Path) -> Result<Daemon, String> {
        let stderr = std::fs::File::create(stderr)
            .map_err(|e| format!("cannot create {}: {e}", stderr.display()))?;
        let child = Command::new(seal)
            .args(["serve", "--jobs", "1", "--max-conns", "4", "--listen"])
            .arg(&sock)
            .env_remove("SEAL_CACHE_DIR")
            .env_remove("SEAL_CACHE")
            .env_remove("SEAL_WARM_BYTES")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn seal serve: {e}"))?;
        Ok(Daemon {
            sock,
            child: Some(child),
            thread: None,
        })
    }

    /// The daemon `seal serve --listen S --jobs 1` builds, in process.
    fn in_process(sock: PathBuf) -> Daemon {
        let opts = seal::serve::ServeOptions {
            listen: Some(sock.display().to_string()),
            jobs: 1,
            max_conns: 4,
            max_line: seal::serve::DEFAULT_MAX_LINE,
        };
        let cache = AnalysisCache::disabled().with_warm(WarmMemory::with_default_budget());
        let thread = std::thread::spawn(move || seal::serve::serve(&cache, &opts));
        Daemon {
            sock,
            child: None,
            thread: Some(thread),
        }
    }

    fn pid(&self) -> Option<String> {
        self.child.as_ref().map(|c| c.id().to_string())
    }

    /// Connects, retrying while the daemon starts up.
    fn connect(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(stream) = UnixStream::connect(&self.sock) {
                let reader = BufReader::new(
                    stream
                        .try_clone()
                        .map_err(|e| format!("cannot clone the socket: {e}"))?,
                );
                return Ok(Client {
                    stream,
                    reader,
                    latency: Measured::default(),
                    outputs: Vec::new(),
                    mismatches: 0,
                });
            }
            if let Some(Ok(Some(status))) = self.child.as_mut().map(Child::try_wait) {
                return Err(format!("seal serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!("no daemon answered on {}", self.sock.display()));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Sends `shutdown` and waits for the daemon to exit cleanly.
    fn stop(&mut self) -> Result<(), String> {
        let asked = UnixStream::connect(&self.sock).and_then(|mut s| {
            writeln!(s, "{{\"cmd\":\"shutdown\"}}")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line).map(drop)
        });
        if let Some(mut child) = self.child.take() {
            if asked.is_err() {
                let _ = child.kill();
            }
            let status = child
                .wait()
                .map_err(|e| format!("cannot wait for seal serve: {e}"))?;
            if !status.success() {
                return Err(format!("seal serve exited with {status}"));
            }
        }
        if let Some(thread) = self.thread.take() {
            asked.map_err(|e| format!("cannot shut the daemon down: {e}"))?;
            match thread.join() {
                Ok(Ok(true)) => {}
                Ok(Ok(false)) => return Err("the daemon saw a failed item".to_string()),
                Ok(Err(e)) => return Err(format!("the daemon failed: {e}")),
                Err(_) => return Err("the daemon thread panicked".to_string()),
            }
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("sealbench: {e}");
        }
    }
}

/// One client connection and what it saw.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    latency: Measured,
    /// First `output` per item of this client's half.
    outputs: Vec<Option<String>>,
    mismatches: u64,
}

impl Client {
    /// Sends one request and returns its response line.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        writeln!(self.stream, "{line}").map_err(|e| format!("cannot send a request: {e}"))?;
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => Json::parse(buf.trim_end()).map_err(|e| format!("bad response {buf}: {e}")),
            Err(e) => Err(format!("cannot read a response: {e}")),
        }
    }

    /// One request for item `slot` of this client's half; records the
    /// latency and checks the output against earlier ones.
    fn hunt(&mut self, tree: &Tree, slot: usize, item: usize) -> Result<f64, String> {
        let line = tree.request_line(item);
        let t0 = Instant::now();
        let r = self.call(&line)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if r.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("item {item} failed: {}", line_of(&r)));
        }
        let output = r.get("output").and_then(Json::as_str).unwrap_or_default();
        match &self.outputs[slot] {
            None => self.outputs[slot] = Some(output.to_string()),
            Some(first) if first != output => self.mismatches += 1,
            Some(_) => {}
        }
        Ok(ms)
    }

    /// One pass over this client's half: re-pad every tenth item from its
    /// original text (untimed), then one request per item until
    /// `deadline`.
    fn pass(
        &mut self,
        tree: &Tree,
        half: &[usize],
        tag: &str,
        deadline: Option<Instant>,
    ) -> Result<(), String> {
        for &item in half.iter().step_by(10) {
            let ((pre, post), (pre_text, post_text)) = (&tree.items[item], &tree.pristine[item]);
            write_padded(Path::new(pre), pre_text, tag)?;
            write_padded(Path::new(post), post_text, tag)?;
        }
        self.outputs.resize(half.len(), None);
        for (slot, &item) in half.iter().enumerate() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let r = self.hunt(tree, slot, item);
            self.latency.record(r, 1.0);
        }
        Ok(())
    }
}

fn line_of(j: &Json) -> String {
    match j.get("error").and_then(Json::as_str) {
        Some(e) => e.to_string(),
        None => format!("{j:?}"),
    }
}

/// Client `c`'s half of the items.
fn half(tree: &Tree, c: usize) -> Vec<usize> {
    (c..tree.items.len()).step_by(CLIENTS).collect()
}

/// A started daemon with its clients connected and one warm pass done.
/// Fields drop in order: connections close before the daemon stops, and
/// the tree goes last.
struct Served {
    clients: Vec<Client>,
    daemon: Daemon,
    tree: Tree,
}

fn setup(tree: Tree, mut daemon: Daemon) -> Result<Served, String> {
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(daemon.connect()?);
    }
    let mut served = Served {
        clients,
        daemon,
        tree,
    };
    passes(&mut served, "warm", None)?;
    for c in &mut served.clients {
        if c.latency.failed > 0 {
            return Err("a warm-pass request failed".to_string());
        }
        c.latency = Measured::default();
    }
    Ok(served)
}

/// One pass of every client at once, each on its own thread.
fn passes(s: &mut Served, tag: &str, deadline: Option<Instant>) -> Result<(), String> {
    let tree = &s.tree;
    std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let tag = format!("{tag}_c{c}");
                scope.spawn(move || client.pass(tree, &half(tree, c), &tag, deadline))
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("client thread panicked"))
    })
}

/// Moves every client's measurements out, merged.
fn take_measured(s: &mut Served) -> Measured {
    let mut m = Measured::default();
    for c in &mut s.clients {
        m.absorb(std::mem::take(&mut c.latency));
    }
    m
}

/// The untraced run against a `seal serve` child process.
fn measure(dir: &WorkDir, args: &RunArgs) -> Result<(Served, EndToEnd), String> {
    let seal = seal_bin()?;
    let mut speed = Speed::start(CLIENTS);
    let mut rep = 0;
    let (mut served, setup_times) = repeat_setup(SETUP_REPS, Some(&mut speed), || {
        rep += 1;
        let tree = Tree::write(dir.join(&format!("rep{rep}")), args.seed)?;
        let sock = dir.join(&format!("rep{rep}.sock"));
        let daemon = Daemon::spawn(&seal, sock, &dir.join("serve.stderr"))?;
        setup(tree, daemon)
    })?;
    let pid = served.daemon.pid().expect("a spawned daemon has a pid");
    reset_peak_rss(&pid)?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass = 0;
    while Instant::now() < deadline {
        pass += 1;
        let before: Vec<usize> = served
            .clients
            .iter()
            .map(|c| c.latency.latency_ms.len())
            .collect();
        let t0 = Instant::now();
        passes(&mut served, &format!("p{pass}"), Some(deadline))?;
        // The probe follows the pass: a request's latency is scaled by the
        // host speed around the pass it belongs to.
        let factor = speed.factor_after(t0.elapsed().as_secs_f64() * 1e3);
        for (c, from) in served.clients.iter_mut().zip(before) {
            c.latency.scale_from(from, factor);
        }
    }
    let peak_kb = peak_rss_kb(&pid)? as f64;
    // Each client is a closed loop, so the daemon's throughput is the sum
    // of the clients' request rates.
    let items_per_s = served
        .clients
        .iter()
        .map(|c| per_second(1, &c.latency.latency_ms))
        .sum();
    let e2e = EndToEnd {
        setup: setup_times,
        ops: take_measured(&mut served),
        tail_pct: tail_percentile(FROZEN_OPS),
        items_per_s,
        peak_kb,
        host_speed: speed.host_speed(),
    };
    Ok((served, e2e))
}

/// The traced run against the in-process daemon: passes alternate between
/// untraced and traced (one trace per pass of both clients).
fn measure_traced(dir: &WorkDir, args: &RunArgs) -> Result<(Served, RunReport), String> {
    let tree = Tree::write(dir.join("rep1"), args.seed)?;
    let mut served = setup(tree, Daemon::in_process(dir.join("t.sock")))?;
    let mut ledger = Ledger::default();
    let (mut plain, mut with_trace) = (Measured::default(), Measured::default());
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed().as_secs_f64() < args.seconds || with_trace.attempted < MIN_TRACED_OPS {
        pass += 1;
        passes(&mut served, &format!("p{pass}"), None)?;
        plain.absorb(take_measured(&mut served));
        pass += 1;
        let t0 = Instant::now();
        let (r, data, snap) = traced(|| passes(&mut served, &format!("p{pass}"), None));
        r?;
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let m = take_measured(&mut served);
        ledger.add(m.latency_ms.len(), wall_us, &data, &snap);
        with_trace.absorb(m);
    }
    let report = traced_report(&ledger, CLIENTS, &plain, &with_trace);
    Ok((served, report))
}

pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let dir = WorkDir::new("serve_warm_2c")?;
    let (mut served, mut report) = if args.trace {
        measure_traced(&dir, args)?
    } else {
        let (served, e2e) = measure(&dir, args)?;
        (served, e2e.report())
    };
    served.daemon.stop()?;

    // Every response must equal the uncached in-process request path.
    let uncached = RunCtx {
        cache: AnalysisCache::disabled(),
        jobs: 1,
    };
    let mut found = BTreeSet::new();
    let mut differs = 0;
    for (c, client) in served.clients.iter().enumerate() {
        for (slot, item) in half(&served.tree, c).into_iter().enumerate() {
            let reference = run_request(&uncached, &served.tree.request(item))?.stdout;
            found.extend(report_functions(&reference));
            if client.outputs.get(slot).and_then(Option::as_deref) != Some(reference.as_str()) {
                differs += 1;
            }
        }
    }
    let mismatches: u64 = served.clients.iter().map(|c| c.mismatches).sum();
    if mismatches > 0 {
        report
            .failed_checks
            .push(format!("{mismatches} response(s) changed between passes"));
    }
    if differs > 0 {
        report.failed_checks.push(format!(
            "{differs} item(s) answered differently from the uncached in-process run_request"
        ));
    }
    if let Some(missed) = missed_bugs(&found, &served.tree.ground_truth) {
        report.failed_checks.push(missed);
    }
    Ok(report)
}
