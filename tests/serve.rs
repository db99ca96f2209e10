//! End-to-end contract tests for `seal serve`: every item's `output` field
//! is byte-identical to the equivalent solo CLI invocation at any worker
//! count, the warm layer serves mutated re-requests without changing
//! results, a corrupted store degrades to recompute, the LRU respects its
//! byte budget, and protocol garbage never kills the daemon.
//!
//! The socket-mode suite (unix only) covers the concurrent daemon:
//! simultaneous clients with byte-identical outputs and gapless
//! per-connection `seq`s, busy rejection beyond `--max-conns`, the
//! live-socket/stale-socket distinction, logged (never fatal) connection
//! I/O errors, and a shutdown drain that flushes a cleanly reloadable
//! store.

use seal::json::Json;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

fn seal_bin() -> &'static str {
    env!("CARGO_BIN_EXE_seal")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seal-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

const SHARED: &str = "
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
int vbi(struct riscmem *risc) {
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}
";

fn pre_source() -> String {
    format!(
        "{SHARED}int buffer_prepare(struct riscmem *r) {{ vbi(r); return 0; }}\n\
         struct vb2_ops q = {{ .buf_prepare = buffer_prepare, }};"
    )
}

fn post_source() -> String {
    format!(
        "{SHARED}int buffer_prepare(struct riscmem *r) {{ return vbi(r); }}\n\
         struct vb2_ops q = {{ .buf_prepare = buffer_prepare, }};"
    )
}

/// A target whose sibling ignores the `vbi` return value — the seeded
/// violation the inferred spec flags.
fn buggy_target() -> String {
    format!(
        "{SHARED}int tw68_buf_prepare(struct riscmem *r) {{ vbi(r); return 0; }}\n\
         struct vb2_ops tw = {{ .buf_prepare = tw68_buf_prepare, }};"
    )
}

/// One running `seal serve` child with piped stdin/stdout.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut cmd = Command::new(seal_bin());
        cmd.arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        // Tests must not pick up an ambient cache directory.
        cmd.env_remove("SEAL_CACHE_DIR");
        let mut child = cmd.spawn().unwrap();
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin: Some(stdin),
            stdout,
        }
    }

    /// Sends one request line and reads `n` response lines.
    fn request(&mut self, line: &str, n: usize) -> Vec<Json> {
        let stdin = self.stdin.as_mut().expect("stdin already closed");
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        (0..n).map(|_| self.read_line()).collect()
    }

    fn read_line(&mut self) -> Json {
        let mut buf = String::new();
        let n = self.stdout.read_line(&mut buf).unwrap();
        assert!(n > 0, "daemon closed its stdout early");
        Json::parse(buf.trim_end()).unwrap_or_else(|e| panic!("bad response `{buf}`: {e}"))
    }

    fn stats(&mut self) -> Json {
        self.request(r#"{"cmd":"stats"}"#, 1).remove(0)
    }

    /// Sends `shutdown`, waits for the ack, and returns the exit code.
    fn shutdown(mut self) -> i32 {
        let ack = self.request(r#"{"cmd":"shutdown"}"#, 1).remove(0);
        assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
        drop(self.stdin.take());
        self.child.wait().unwrap().code().unwrap()
    }

    /// Closes stdin (EOF) without a shutdown command and waits for exit.
    fn close_stdin_and_wait(mut self) -> i32 {
        drop(self.stdin.take());
        self.child.wait().unwrap().code().unwrap()
    }
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing number `{key}` in {v:?}"))
}

fn output(v: &Json) -> &str {
    v.get("output")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing `output` in {v:?}"))
}

fn assert_ok_item(v: &Json) {
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "item failed: {v:?}");
    assert_eq!(num(v, "code"), 0.0);
}

/// Runs the solo CLI and returns its stdout (asserting success).
fn cli_stdout(args: &[&str]) -> String {
    let out = Command::new(seal_bin())
        .args(args)
        .env_remove("SEAL_CACHE_DIR")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "cli {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// An interleaved infer/detect/hunt batch produces, for every item and at
/// every worker count, the exact stdout bytes of the equivalent solo CLI
/// invocation — including across re-requests that hit the warm layer.
#[test]
fn batch_items_are_byte_identical_to_solo_cli_across_jobs() {
    let dir = temp_dir("identity");
    let pre = write(&dir, "pre.c", &pre_source());
    let post = write(&dir, "post.c", &post_source());
    let target = write(&dir, "kernel.c", &buggy_target());
    let specs = dir.join("specs.txt");
    cli_stdout(&[
        "infer",
        "--pre",
        pre.to_str().unwrap(),
        "--post",
        post.to_str().unwrap(),
        "--out",
        specs.to_str().unwrap(),
    ]);

    let mut daemon = Daemon::spawn(&[], &[]);
    for jobs in ["1", "4"] {
        let infer_ref = cli_stdout(&[
            "infer",
            "--pre",
            pre.to_str().unwrap(),
            "--post",
            post.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        let detect_ref = cli_stdout(&[
            "detect",
            "--target",
            target.to_str().unwrap(),
            "--specs",
            specs.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        let hunt_ref = cli_stdout(&[
            "hunt",
            "--pre",
            pre.to_str().unwrap(),
            "--post",
            post.to_str().unwrap(),
            "--target",
            target.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        assert!(detect_ref.contains("violation"), "target should be flagged");

        let batch = format!(
            r#"{{"cmd":"batch","items":[
                {{"cmd":"infer","pre":"{pre}","post":"{post}","jobs":{jobs}}},
                {{"cmd":"detect","target":"{target}","specs":"{specs}","jobs":{jobs}}},
                {{"cmd":"hunt","pre":"{pre}","post":"{post}","target":"{target}","jobs":{jobs}}}
            ]}}"#,
            pre = pre.display(),
            post = post.display(),
            target = target.display(),
            specs = specs.display(),
        )
        .replace('\n', " ");
        let responses = daemon.request(&batch, 3);
        for (i, r) in responses.iter().enumerate() {
            assert_ok_item(r);
            assert_eq!(num(r, "item"), i as f64);
        }
        assert_eq!(output(&responses[0]), infer_ref, "infer at jobs={jobs}");
        assert_eq!(output(&responses[1]), detect_ref, "detect at jobs={jobs}");
        assert_eq!(output(&responses[2]), hunt_ref, "hunt at jobs={jobs}");
    }
    assert_eq!(daemon.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-requesting a batch after mutating a fraction of the patches must be
/// served from the warm layer (hits strictly increase) and still match the
/// solo CLI on the mutated inputs byte for byte.
#[test]
fn mutated_rerequest_hits_warm_layer_and_matches_cli() {
    let dir = temp_dir("warm");
    let target = write(&dir, "kernel.c", &buggy_target());
    let mut patches = Vec::new();
    for i in 0..3 {
        // Distinct ids keep the three patch pairs from collapsing into one
        // warm entry.
        let pre = write(
            &dir,
            &format!("p{i}.pre.c"),
            &format!("{}\nint pad_{i}(int x) {{ return x; }}\n", pre_source()),
        );
        let post = write(
            &dir,
            &format!("p{i}.post.c"),
            &format!("{}\nint pad_{i}(int x) {{ return x; }}\n", post_source()),
        );
        patches.push((pre, post));
    }
    let batch = |patches: &[(PathBuf, PathBuf)]| {
        let items: Vec<String> = patches
            .iter()
            .map(|(pre, post)| {
                format!(
                    r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","jobs":1}}"#,
                    pre.display(),
                    post.display(),
                    target.display()
                )
            })
            .collect();
        format!(r#"{{"cmd":"batch","items":[{}]}}"#, items.join(","))
    };

    let mut daemon = Daemon::spawn(&[], &[]);
    let first = daemon.request(&batch(&patches), 3);
    for r in &first {
        assert_ok_item(r);
    }
    let s1 = daemon.stats();
    let h1 = num(s1.get("warm").unwrap(), "hits");
    assert!(
        num(s1.get("warm").unwrap(), "insertions") > 0.0,
        "first batch inserted nothing into the warm layer"
    );

    // Mutate one of the three patch pairs (append a no-op function to both
    // sides, so the diff — and the inferred specs — stay the same).
    let (pre, post) = &patches[0];
    for p in [pre, post] {
        let mut text = std::fs::read_to_string(p).unwrap();
        text.push_str("\nint seal_mut_pad(int x) { return x + 1; }\n");
        std::fs::write(p, text).unwrap();
    }

    let second = daemon.request(&batch(&patches), 3);
    for r in &second {
        assert_ok_item(r);
    }
    let s2 = daemon.stats();
    let h2 = num(s2.get("warm").unwrap(), "hits");
    assert!(
        h2 > h1,
        "mutated re-request was not served from the warm layer (hits {h1} -> {h2})"
    );
    // The daemon reports its own peak RSS (VmHWM, so nonzero wherever
    // procfs exists).
    let rss_peak_kb = num(&s2, "rss_peak_kb");
    if cfg!(target_os = "linux") {
        assert!(rss_peak_kb > 0.0, "stats rss_peak_kb is {rss_peak_kb}");
    }
    assert_eq!(daemon.shutdown(), 0);

    // The warm-served outputs match solo CLI runs on the mutated inputs.
    for ((pre, post), r) in patches.iter().zip(&second) {
        let reference = cli_stdout(&[
            "hunt",
            "--pre",
            pre.to_str().unwrap(),
            "--post",
            post.to_str().unwrap(),
            "--target",
            target.to_str().unwrap(),
            "--jobs",
            "1",
        ]);
        assert_eq!(output(r), reference, "warm output drifted from the CLI");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted store degrades the next daemon to recompute — identical
/// output, clean exit — and EOF (no explicit shutdown) still flushes the
/// store atomically.
#[test]
fn store_corruption_degrades_to_recompute_with_identical_output() {
    let dir = temp_dir("corrupt");
    let cache_dir = dir.join("cache");
    let pre = write(&dir, "pre.c", &pre_source());
    let post = write(&dir, "post.c", &post_source());
    let target = write(&dir, "kernel.c", &buggy_target());
    let hunt = format!(
        r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","jobs":1}}"#,
        pre.display(),
        post.display(),
        target.display()
    );
    let reference = cli_stdout(&[
        "hunt",
        "--pre",
        pre.to_str().unwrap(),
        "--post",
        post.to_str().unwrap(),
        "--target",
        target.to_str().unwrap(),
        "--jobs",
        "1",
    ]);
    let serve_args = ["--cache-dir", cache_dir.to_str().unwrap(), "--cache", "rw"];

    // Session 1 populates the store; EOF (not shutdown) must flush it.
    let mut d1 = Daemon::spawn(&serve_args, &[]);
    let r1 = d1.request(&hunt, 1).remove(0);
    assert_ok_item(&r1);
    assert_eq!(output(&r1), reference);
    assert_eq!(d1.close_stdin_and_wait(), 0);
    let store_path = cache_dir.join(seal_store::STORE_FILE);
    let clean = std::fs::read(&store_path).unwrap();
    assert!(clean.len() > 64, "EOF exit wrote no store");

    // Flip a byte in the record area: the next open keeps only the valid
    // prefix and recomputes the rest.
    let mut bytes = clean.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x41;
    std::fs::write(&store_path, &bytes).unwrap();

    let mut d2 = Daemon::spawn(&serve_args, &[]);
    let r2 = d2.request(&hunt, 1).remove(0);
    assert_ok_item(&r2);
    assert_eq!(
        output(&r2),
        reference,
        "corrupted store changed the daemon's output"
    );
    assert_eq!(d2.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The warm LRU never holds more than its byte budget, and a budget
/// smaller than the working set produces evictions rather than growth.
#[test]
fn lru_eviction_respects_the_byte_budget() {
    let dir = temp_dir("lru");
    let pre = write(&dir, "pre.c", &pre_source());
    let post = write(&dir, "post.c", &post_source());
    // Six distinct targets: six distinct module + shard warm entries.
    let targets: Vec<PathBuf> = (0..6)
        .map(|i| {
            write(
                &dir,
                &format!("k{i}.c"),
                &format!(
                    "{SHARED}int prep_{i}(struct riscmem *r) {{ vbi(r); return 0; }}\n\
                     struct vb2_ops q{i} = {{ .buf_prepare = prep_{i}, }};"
                ),
            )
        })
        .collect();
    let batch = {
        let items: Vec<String> = targets
            .iter()
            .map(|t| {
                format!(
                    r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","jobs":1}}"#,
                    pre.display(),
                    post.display(),
                    t.display()
                )
            })
            .collect();
        format!(r#"{{"cmd":"batch","items":[{}]}}"#, items.join(","))
    };

    // Phase 1: unconstrained budget to measure the working set.
    let mut d1 = Daemon::spawn(&[], &[("SEAL_WARM_BYTES", "1073741824")]);
    for r in d1.request(&batch, 6) {
        assert_ok_item(&r);
    }
    let w1 = d1.stats();
    let used = num(w1.get("warm").unwrap(), "used_bytes");
    assert!(used > 0.0, "warm layer held nothing after six hunts");
    assert_eq!(num(w1.get("warm").unwrap(), "evictions"), 0.0);
    assert_eq!(d1.shutdown(), 0);

    // Phase 2: two thirds of the working set forces evictions while the
    // used count stays under budget at all times.
    let budget = ((used as u64) * 2 / 3).max(1024);
    let budget_str = budget.to_string();
    let mut d2 = Daemon::spawn(&[], &[("SEAL_WARM_BYTES", budget_str.as_str())]);
    for r in d2.request(&batch, 6) {
        assert_ok_item(&r);
    }
    let w2 = d2.stats();
    let warm = w2.get("warm").unwrap();
    assert_eq!(num(warm, "budget_bytes"), budget as f64);
    assert!(
        num(warm, "used_bytes") <= budget as f64,
        "warm layer exceeded its budget: {} > {budget}",
        num(warm, "used_bytes")
    );
    assert!(
        num(warm, "evictions") > 0.0,
        "undersized budget produced no evictions"
    );
    assert_eq!(d2.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed JSON, unknown commands, bad item shapes, and oversized lines
/// each get a per-line protocol error — and the daemon keeps serving.
#[test]
fn protocol_garbage_never_kills_the_daemon() {
    let dir = temp_dir("protocol");
    let pre = write(&dir, "pre.c", &pre_source());
    let post = write(&dir, "post.c", &post_source());
    let mut daemon = Daemon::spawn(&[], &[("SEAL_SERVE_MAX_LINE", "300")]);

    let expect_protocol_error = |v: &Json| {
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "got: {v:?}");
        assert_eq!(
            v.get("stage").and_then(Json::as_str),
            Some("protocol"),
            "got: {v:?}"
        );
        assert!(v.get("error").and_then(Json::as_str).is_some());
    };

    for bad in [
        "this is not json",
        r#"{"cmd":"frobnicate"}"#,
        r#"{"nocmd":true}"#,
        r#"{"cmd":"batch"}"#,
        r#"{"cmd":"hunt","pre":"x.c"}"#,
        r#"{"cmd":"detect","target":"","specs":"s.txt"}"#,
    ] {
        let r = daemon.request(bad, 1).remove(0);
        expect_protocol_error(&r);
    }
    // A `jobs` value outside 1..=1024 is a protocol error, not a crash.
    let bad_jobs = format!(
        r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","jobs":0}}"#,
        pre.display(),
        post.display(),
        pre.display()
    );
    expect_protocol_error(&daemon.request(&bad_jobs, 1).remove(0));

    // An oversized line is drained, answered, and the stream resyncs.
    let oversized = format!(r#"{{"cmd":"hunt","pre":"{}"}}"#, "x".repeat(2000));
    let r = daemon.request(&oversized, 1).remove(0);
    expect_protocol_error(&r);
    assert!(r.get("error").unwrap().as_str().unwrap().contains("limit"));

    // A missing input file is a per-item `request` failure, served cleanly.
    let gone = format!(
        r#"{{"cmd":"detect","target":"{}","specs":"/nonexistent/specs.txt"}}"#,
        pre.display()
    );
    let r = daemon.request(&gone, 1).remove(0);
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(r.get("stage").and_then(Json::as_str), Some("request"));

    // After all of that, the daemon still answers.
    let pong = daemon.request(r#"{"cmd":"ping"}"#, 1).remove(0);
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

    // Failures were served, so the daemon exits with the partial class.
    assert_eq!(daemon.shutdown(), 2);

    // Under the default line limit, a request line of over 1 MiB (a hunt
    // whose id is 1 MiB) is parsed in one linear pass: it gets its one
    // response, and the same connection keeps serving.
    let target = write(&dir, "target.c", &buggy_target());
    let mut daemon = Daemon::spawn(&[], &[]);
    let id = "i".repeat(1 << 20);
    let long = format!(
        r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","id":"{id}","jobs":1}}"#,
        pre.display(),
        post.display(),
        target.display()
    );
    assert!(long.len() > 1 << 20);
    let r = daemon.request(&long, 1).remove(0);
    assert_ok_item(&r);
    assert!(output(&r).contains("tw68_buf_prepare"), "{}", output(&r));
    let pong = daemon.request(r#"{"cmd":"ping"}"#, 1).remove(0);
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
    assert_eq!(daemon.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A garbage `SEAL_SERVE_MAX_LINE` (or `--max-conns`) must be a fatal
/// startup error in the usage class (2) — not a silent fall-back to the
/// default limit.
#[test]
fn invalid_serve_config_is_a_fatal_startup_error() {
    let fatal = |args: &[&str], envs: &[(&str, &str)], needle: &str| {
        let mut cmd = Command::new(seal_bin());
        cmd.arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .env_remove("SEAL_CACHE_DIR");
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage-class exit for {args:?} {envs:?}, stderr: {stderr}"
        );
        assert!(
            stderr.contains(needle),
            "stderr should mention `{needle}`: {stderr}"
        );
    };
    fatal(
        &[],
        &[("SEAL_SERVE_MAX_LINE", "not-a-number")],
        "SEAL_SERVE_MAX_LINE",
    );
    fatal(&[], &[("SEAL_SERVE_MAX_LINE", "0")], "SEAL_SERVE_MAX_LINE");
    fatal(&["--max-conns", "0"], &[], "--max-conns");
    fatal(&["--max-conns", "many"], &[], "--max-conns");
}

/// Committed corpus data: two patch pairs and the target kernel they
/// are hunted against (the npd-check patch flags `ks7180_fw_probe`).
fn data(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// The committed target after an in-place edit: one line inserted at the
/// top (every span shifts) and one statement added to the flagged
/// function (its body changes), so a stale module, call graph or body
/// hash would replay the old report.
fn edited_target() -> String {
    let text = std::fs::read_to_string(data("target.c")).unwrap();
    let anchor = "int ks7180_fw_probe(int id) {\n";
    assert!(text.contains(anchor), "target.c lost its flagged function");
    format!(
        "/* edited in place */\n{}",
        text.replacen(anchor, &format!("{anchor}    id = id + 1;\n"), 1)
    )
}

/// Hunts over the committed patches against the `target` files: each
/// patch alone, then both together, and the whole list again, so every
/// distinct request is also answered warm.
fn hunt_requests(target: &[&Path]) -> Vec<seal::request::RequestKind> {
    let path = |p: PathBuf| p.display().to_string();
    let sets: [&[&str]; 3] = [&["npd-check"], &["uaf-order"], &["npd-check", "uaf-order"]];
    sets.iter()
        .chain(&sets)
        .map(|names| seal::request::RequestKind::Hunt {
            pre: names
                .iter()
                .map(|n| path(data(&format!("{n}.pre.c"))))
                .collect(),
            post: names
                .iter()
                .map(|n| path(data(&format!("{n}.post.c"))))
                .collect(),
            id: "patch".to_string(),
            target: target.iter().map(|t| path(t.to_path_buf())).collect(),
        })
        .collect()
}

/// One warm request context answers every hunt byte-identically to an
/// uncached run, at jobs 1 and 2 — and after the target file is rewritten
/// at the same path, the next requests equal uncached runs on the new
/// text: the module entry, its call graph and its memoized body hashes
/// all follow the content, never the path.
#[test]
fn warm_context_matches_uncached_runs_across_in_place_target_edits() {
    use seal::core::{AnalysisCache, WarmMemory};
    use seal::request::{run_request, RunCtx};
    for jobs in [1, 2] {
        let dir = temp_dir(&format!("facts-j{jobs}"));
        let target = dir.join("target.c");
        std::fs::copy(data("target.c"), &target).unwrap();
        let hunts = hunt_requests(&[&target]);
        let warm = RunCtx {
            cache: AnalysisCache::disabled().with_warm(WarmMemory::with_default_budget()),
            jobs,
        };
        let cold = RunCtx {
            cache: AnalysisCache::disabled(),
            jobs,
        };
        let run = |ctx: &RunCtx, k| run_request(ctx, k).unwrap().stdout;

        let before: Vec<String> = hunts.iter().map(|k| run(&warm, k)).collect();
        for (k, out) in hunts.iter().zip(&before) {
            assert_eq!(*out, run(&cold, k), "warm output drifted at jobs={jobs}");
        }
        assert!(before[0].contains("ks7180_fw_probe"), "{}", before[0]);
        assert!(warm.cache.warm().unwrap().stats().hits > 0);

        std::fs::write(&target, edited_target()).unwrap();
        for (i, k) in hunts.iter().enumerate() {
            let out = run(&warm, k);
            assert_eq!(
                out,
                run(&cold, k),
                "stale answer after the edit at jobs={jobs}"
            );
            if before[i].contains("violation(s)") {
                assert_ne!(out, before[i], "the edit moved no report");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Runs every hunt through `warm` and through an uncached context at the
/// same worker count, asserts the outputs are byte-identical, and returns
/// them.
fn warm_equals_cold(
    warm: &seal::request::RunCtx,
    hunts: &[seal::request::RequestKind],
    when: &str,
) -> Vec<String> {
    use seal::request::{run_request, RunCtx};
    let cold = RunCtx {
        cache: seal::core::AnalysisCache::disabled(),
        jobs: warm.jobs,
    };
    hunts
        .iter()
        .map(|k| {
            let out = run_request(warm, k).unwrap().stdout;
            assert_eq!(out, run_request(&cold, k).unwrap().stdout, "{when}");
            out
        })
        .collect()
}

/// A warm context over the default budget.
fn warm_ctx(budget: u64) -> seal::request::RunCtx {
    use seal::core::{AnalysisCache, WarmMemory};
    seal::request::RunCtx {
        cache: AnalysisCache::disabled().with_warm(WarmMemory::new(budget)),
        jobs: 1,
    }
}

/// The committed target with one byte changed in place: a guarded
/// sibling's `==` NULL check becomes `!=`, so the file keeps its path and
/// size and the sibling turns into a new NPD report.
fn one_byte_edit(text: &str) -> String {
    let guard = "em2102_2_alloc_state(id);\n    if (m == NULL)";
    assert!(text.contains(guard), "target.c lost its guarded sibling");
    let edited = text.replacen(guard, &guard.replace("==", "!="), 1);
    assert_eq!(edited.len(), text.len());
    edited
}

/// The warm target memo reuses a module key only for byte-equal texts: a
/// one-byte edit that keeps the path, the size and even the mtime (which
/// a size- or mtime-based shortcut would miss) gets answers equal to an
/// uncached run.
#[test]
fn warm_target_memo_sees_a_same_size_in_place_edit() {
    let dir = temp_dir("memo-one-byte");
    let target = dir.join("target.c");
    std::fs::copy(data("target.c"), &target).unwrap();
    let hunts = hunt_requests(&[&target]);
    let warm = warm_ctx(seal::core::warm::DEFAULT_WARM_BUDGET);
    let before = warm_equals_cold(&warm, &hunts, "before the edit");

    let mtime = std::fs::metadata(&target).unwrap().modified().unwrap();
    let text = std::fs::read_to_string(&target).unwrap();
    std::fs::write(&target, one_byte_edit(&text)).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&target)
        .unwrap()
        .set_modified(mtime)
        .unwrap();
    let after = warm_equals_cold(&warm, &hunts, "stale answer after a same-size edit");
    assert!(after[0].contains("em2102_2_fw_probe"), "{}", after[0]);
    assert_ne!(after[0], before[0], "the edit moved no report");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second driver file, guarded or not, for two-file targets. It brings
/// its own declarations, like every file of a linked target.
fn second_file(guarded: bool) -> String {
    format!(
        "void *devm_kzalloc(unsigned long size);\n\
         struct fw_mem_v1 {{ int ready; int cookie; }};\n\
         struct firmware_ops_v1 {{ int (*fw_probe)(int id); }};\n\
         struct fw_mem_v1 *zz9000_alloc_state(int id) {{\n\
         \x20   struct fw_mem_v1 *m = (struct fw_mem_v1 *)devm_kzalloc(24);\n\
         \x20   return m;\n\
         }}\n\
         int zz9000_fw_probe(int id) {{\n\
         \x20   struct fw_mem_v1 *m = zz9000_alloc_state(id);\n\
         {}\
         \x20   m->ready = id;\n\
         \x20   return 0;\n\
         }}\n\
         struct firmware_ops_v1 zz9000_fw_ops = {{ .fw_probe = zz9000_fw_probe, }};\n",
        if guarded {
            "    if (m == NULL) return -12;\n"
        } else {
            ""
        }
    )
}

/// In a two-file target where only the second file changes, the warm
/// answers follow the new text of that file.
#[test]
fn warm_target_memo_sees_an_edit_of_the_second_file_only() {
    let dir = temp_dir("memo-two-files");
    let first = dir.join("target.c");
    let second = dir.join("zz9000.c");
    std::fs::copy(data("target.c"), &first).unwrap();
    std::fs::write(&second, second_file(true)).unwrap();
    let hunts = hunt_requests(&[&first, &second]);
    let warm = warm_ctx(seal::core::warm::DEFAULT_WARM_BUDGET);
    let before = warm_equals_cold(&warm, &hunts, "two files, before the edit");
    assert!(!before[0].contains("zz9000_fw_probe"), "{}", before[0]);

    std::fs::write(&second, second_file(false)).unwrap();
    let after = warm_equals_cold(&warm, &hunts, "stale answer after editing file two");
    assert!(after[0].contains("zz9000_fw_probe"), "{}", after[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under a warm budget barely larger than the target text, the memo
/// entry is evicted between requests; answers still equal uncached runs
/// before and after a same-size edit, and the next lookup re-inserts it.
#[test]
fn warm_target_memo_survives_eviction_without_stale_answers() {
    let dir = temp_dir("memo-evicted");
    let target = dir.join("target.c");
    std::fs::copy(data("target.c"), &target).unwrap();
    let hunts = hunt_requests(&[&target]);
    let text = std::fs::read_to_string(&target).unwrap();
    let memo_cost = (text.len() + target.display().to_string().len()) as u64;
    let warm = warm_ctx(memo_cost + 1024);
    warm_equals_cold(&warm, &hunts, "small budget, before the edit");
    std::fs::write(&target, one_byte_edit(&text)).unwrap();
    warm_equals_cold(&warm, &hunts, "small budget, after the edit");

    let layer = warm.cache.warm().unwrap();
    assert!(layer.stats().evictions > 0, "{:?}", layer.stats());
    let files = std::sync::Arc::new(vec![(
        target.display().to_string(),
        std::fs::read_to_string(&target).unwrap(),
    )]);
    let inserted = layer.stats().insertions;
    warm.cache.module_key(&files);
    assert_eq!(
        layer.stats().insertions,
        inserted + 1,
        "the memo entry was still resident: the budget evicted nothing of it"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon builds one call graph per distinct target text, however
/// many requests it answers against it (`detect.callgraph_builds`), and
/// its answers stay byte-identical to uncached runs across an in-place
/// rewrite of the target.
#[test]
fn daemon_builds_one_call_graph_per_distinct_target() {
    use seal::request::{run_request, RequestKind, RunCtx};
    let dir = temp_dir("callgraph-builds");
    let target = dir.join("target.c");
    std::fs::copy(data("target.c"), &target).unwrap();
    let metrics = dir.join("metrics.json");
    let hunts = hunt_requests(&[&target]);
    let batch = format!(
        r#"{{"cmd":"batch","items":[{}]}}"#,
        hunts
            .iter()
            .map(|k| match k {
                RequestKind::Hunt {
                    pre, post, target, ..
                } => format!(
                    r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","jobs":1}}"#,
                    pre.join(","),
                    post.join(","),
                    target[0]
                ),
                _ => unreachable!(),
            })
            .collect::<Vec<_>>()
            .join(",")
    );
    let cold = RunCtx {
        cache: seal::core::AnalysisCache::disabled(),
        jobs: 1,
    };
    let mut daemon = Daemon::spawn(&["--metrics", metrics.to_str().unwrap()], &[]);
    for pass in 0..2 {
        if pass == 1 {
            std::fs::write(&target, edited_target()).unwrap();
        }
        let responses = daemon.request(&batch, hunts.len());
        for (r, k) in responses.iter().zip(&hunts) {
            assert_ok_item(r);
            let reference = run_request(&cold, k).unwrap().stdout;
            assert_eq!(output(r), reference, "daemon drifted in pass {pass}");
        }
    }
    assert_eq!(daemon.shutdown(), 0);
    let snap = seal::obs::MetricsSnapshot::parse(&std::fs::read_to_string(&metrics).unwrap())
        .expect("metrics file parses");
    assert_eq!(
        snap.metrics["detect.callgraph_builds"].value,
        seal::obs::metrics::MetricValue::Counter(2),
        "one call graph per distinct target across {} requests",
        2 * hunts.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
mod socket {
    use super::*;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::time::{Duration, Instant};

    /// One `seal serve --listen` child plus its socket path. Stderr is
    /// piped so tests can assert on logged connection errors.
    struct SockDaemon {
        child: Child,
        path: PathBuf,
    }

    impl SockDaemon {
        fn spawn(sock: &Path, extra: &[&str], envs: &[(&str, &str)]) -> SockDaemon {
            let mut cmd = Command::new(seal_bin());
            cmd.arg("serve")
                .arg("--listen")
                .arg(sock)
                .args(extra)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .env_remove("SEAL_CACHE_DIR");
            for (k, v) in envs {
                cmd.env(k, v);
            }
            let child = cmd.spawn().unwrap();
            SockDaemon {
                child,
                path: sock.to_path_buf(),
            }
        }

        /// Waits (by probing with connects) until the daemon accepts.
        fn wait_ready(&self) {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if UnixStream::connect(&self.path).is_ok() {
                    return; // The probe connection EOFs immediately; its handler exits.
                }
                assert!(
                    Instant::now() < deadline,
                    "daemon never came up on {}",
                    self.path.display()
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        /// Waits for exit; returns the exit code and captured stderr.
        fn wait(self) -> (i32, String) {
            let out = self.child.wait_with_output().unwrap();
            (
                out.status.code().unwrap(),
                String::from_utf8_lossy(&out.stderr).into_owned(),
            )
        }
    }

    /// One client connection to a socket daemon.
    struct Client {
        stream: UnixStream,
        reader: BufReader<UnixStream>,
        /// Expected next `seq` on this connection (asserted gapless).
        next_seq: u64,
    }

    impl Client {
        fn connect(path: &Path) -> Client {
            let stream = UnixStream::connect(path).unwrap();
            // A hung daemon should fail the test, not wedge the harness.
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client {
                stream,
                reader,
                next_seq: 1,
            }
        }

        fn send(&mut self, line: &str) {
            writeln!(self.stream, "{line}").unwrap();
            self.stream.flush().unwrap();
        }

        fn read_json(&mut self) -> Json {
            let mut buf = String::new();
            let n = self.reader.read_line(&mut buf).unwrap();
            assert!(n > 0, "daemon closed the connection early");
            Json::parse(buf.trim_end()).unwrap_or_else(|e| panic!("bad response `{buf}`: {e}"))
        }

        /// Sends one request and reads its `n` response lines, asserting
        /// this connection's `seq` numbering is gapless and private.
        fn request(&mut self, line: &str, n: usize) -> Vec<Json> {
            self.send(line);
            let responses: Vec<Json> = (0..n).map(|_| self.read_json()).collect();
            for r in &responses {
                assert_eq!(
                    num(r, "seq"),
                    self.next_seq as f64,
                    "seq not gapless/per-connection: {r:?}"
                );
            }
            self.next_seq += 1;
            responses
        }

        fn ping(&mut self) {
            let pong = self.request(r#"{"cmd":"ping"}"#, 1).remove(0);
            assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
        }

        fn shutdown_daemon(&mut self) {
            let ack = self.request(r#"{"cmd":"shutdown"}"#, 1).remove(0);
            assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
        }
    }

    /// The tentpole contract: concurrent clients are served simultaneously
    /// with byte-identical per-item outputs vs the solo CLI at jobs 1 and
    /// 4, each connection's `seq` is gapless, and a sibling spraying
    /// protocol garbage perturbs nothing but the exit class.
    #[test]
    fn concurrent_clients_get_cli_identical_outputs_and_private_seqs() {
        let dir = temp_dir("conc");
        let pre = write(&dir, "pre.c", &pre_source());
        let post = write(&dir, "post.c", &post_source());
        let target = write(&dir, "kernel.c", &buggy_target());
        let specs = dir.join("specs.txt");
        cli_stdout(&[
            "infer",
            "--pre",
            pre.to_str().unwrap(),
            "--post",
            post.to_str().unwrap(),
            "--out",
            specs.to_str().unwrap(),
        ]);
        let mut refs = std::collections::HashMap::new();
        for jobs in ["1", "4"] {
            refs.insert(
                jobs,
                (
                    cli_stdout(&[
                        "infer",
                        "--pre",
                        pre.to_str().unwrap(),
                        "--post",
                        post.to_str().unwrap(),
                        "--jobs",
                        jobs,
                    ]),
                    cli_stdout(&[
                        "detect",
                        "--target",
                        target.to_str().unwrap(),
                        "--specs",
                        specs.to_str().unwrap(),
                        "--jobs",
                        jobs,
                    ]),
                    cli_stdout(&[
                        "hunt",
                        "--pre",
                        pre.to_str().unwrap(),
                        "--post",
                        post.to_str().unwrap(),
                        "--target",
                        target.to_str().unwrap(),
                        "--jobs",
                        jobs,
                    ]),
                ),
            );
        }
        let batch = |jobs: &str| {
            format!(
                r#"{{"cmd":"batch","items":[{{"cmd":"infer","pre":"{pre}","post":"{post}","jobs":{jobs}}},{{"cmd":"detect","target":"{target}","specs":"{specs}","jobs":{jobs}}},{{"cmd":"hunt","pre":"{pre}","post":"{post}","target":"{target}","jobs":{jobs}}}]}}"#,
                pre = pre.display(),
                post = post.display(),
                target = target.display(),
                specs = specs.display(),
            )
        };

        let sock = dir.join("seal.sock");
        let daemon = SockDaemon::spawn(&sock, &[], &[]);
        daemon.wait_ready();

        std::thread::scope(|scope| {
            // Seven well-behaved clients, interleaved with one garbage
            // client: eight connections run concurrently against one daemon.
            for _ in 0..7 {
                let (sock, refs, batch) = (&sock, &refs, &batch);
                scope.spawn(move || {
                    let mut c = Client::connect(sock);
                    c.ping(); // seq 1
                    for jobs in ["1", "4"] {
                        let (infer_ref, detect_ref, hunt_ref) = &refs[jobs];
                        let responses = c.request(&batch(jobs), 3);
                        for (i, r) in responses.iter().enumerate() {
                            assert_ok_item(r);
                            assert_eq!(num(r, "item"), i as f64);
                        }
                        assert_eq!(output(&responses[0]), infer_ref, "infer at jobs={jobs}");
                        assert_eq!(output(&responses[1]), detect_ref, "detect at jobs={jobs}");
                        assert_eq!(output(&responses[2]), hunt_ref, "hunt at jobs={jobs}");
                    }
                });
            }
            let sock = &sock;
            scope.spawn(move || {
                let mut c = Client::connect(sock);
                for bad in [
                    "this is not json",
                    r#"{"cmd":"frobnicate"}"#,
                    r#"{"cmd":"hunt","pre":"x.c"}"#,
                ] {
                    let r = c.request(bad, 1).remove(0);
                    assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
                    assert_eq!(r.get("stage").and_then(Json::as_str), Some("protocol"));
                }
                c.ping(); // still served after the garbage
            });
        });

        let mut closer = Client::connect(&sock);
        closer.shutdown_daemon();
        // The garbage client's protocol errors set the partial class.
        let (code, stderr) = daemon.wait();
        assert_eq!(code, 2, "stderr: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "a connection handler panicked: {stderr}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Connections are served *simultaneously*: a client that connects and
    /// then says nothing must not block a later client (the pre-concurrency
    /// daemon served connections to completion, one at a time).
    #[test]
    fn idle_connection_does_not_block_siblings() {
        let dir = temp_dir("idle");
        let sock = dir.join("seal.sock");
        let daemon = SockDaemon::spawn(&sock, &[], &[]);
        daemon.wait_ready();

        let mut idle = Client::connect(&sock);
        // With a sequential accept loop this ping would time out: the
        // daemon would still be waiting for `idle`'s first line.
        let mut active = Client::connect(&sock);
        active.ping();
        idle.ping(); // The idle connection was being served all along too.
        active.shutdown_daemon();
        let (code, _) = daemon.wait();
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `--max-conns` semaphore: a connection beyond the bound gets one
    /// "server busy" protocol line and is closed; admitted connections are
    /// untouched, and rejections do not dirty the exit class.
    #[test]
    fn connection_beyond_max_conns_is_rejected_busy() {
        let dir = temp_dir("busy");
        let sock = dir.join("seal.sock");
        let daemon = SockDaemon::spawn(&sock, &["--max-conns", "1"], &[]);
        daemon.wait_ready();

        // The readiness probe's connection may still be winding down and
        // holding the single slot; retry until this client is admitted.
        // From then on it holds the slot itself.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut held = loop {
            let mut c = Client::connect(&sock);
            c.send(r#"{"cmd":"ping"}"#);
            let r = c.read_json();
            if r.get("pong") == Some(&Json::Bool(true)) {
                c.next_seq = 2;
                break c;
            }
            assert!(Instant::now() < deadline, "never admitted: {r:?}");
            std::thread::sleep(Duration::from_millis(20));
        };

        let mut rejected = Client::connect(&sock);
        let busy = rejected.read_json();
        assert_eq!(busy.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(busy.get("stage").and_then(Json::as_str), Some("protocol"));
        assert_eq!(num(&busy, "seq"), 0.0, "no request was read: seq must be 0");
        assert!(
            busy.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("busy"),
            "not a busy rejection: {busy:?}"
        );
        // The rejected stream is closed after the busy line.
        let mut rest = String::new();
        assert_eq!(rejected.reader.read_line(&mut rest).unwrap(), 0);

        held.ping(); // The admitted connection never noticed.
        held.shutdown_daemon();
        let (code, _) = daemon.wait();
        assert_eq!(code, 0, "busy rejections must not dirty the exit class");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stale-socket satellite: a second daemon must refuse to steal a
    /// *live* daemon's socket path, while a genuinely stale socket file is
    /// reclaimed and served.
    #[test]
    fn live_socket_is_refused_and_stale_socket_is_reclaimed() {
        let dir = temp_dir("stale");
        let sock = dir.join("seal.sock");
        let daemon = SockDaemon::spawn(&sock, &[], &[]);
        daemon.wait_ready();

        // A contender on the same path must fail fatally without touching
        // the live daemon's socket.
        let out = Command::new(seal_bin())
            .args(["serve", "--listen", sock.to_str().unwrap()])
            .stdin(Stdio::null())
            .env_remove("SEAL_CACHE_DIR")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(
            stderr.contains("in use by a live daemon"),
            "missing live-daemon diagnostic: {stderr}"
        );

        // The original daemon still owns the address.
        let mut c = Client::connect(&sock);
        c.ping();
        c.shutdown_daemon();
        assert_eq!(daemon.wait().0, 0);

        // A stale file (a bound-then-dropped listener leaves the inode
        // behind, like a daemon that died without unlinking) is reclaimed.
        let stale = dir.join("stale.sock");
        drop(UnixListener::bind(&stale).unwrap());
        assert!(stale.exists(), "test setup: no stale socket file");
        let daemon = SockDaemon::spawn(&stale, &[], &[]);
        daemon.wait_ready();
        let mut c = Client::connect(&stale);
        c.ping();
        c.shutdown_daemon();
        assert_eq!(daemon.wait().0, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The swallowed-error satellite: a client vanishing before its
    /// response is written produces one logged connection error and a
    /// `serve.conn_errors` bump — and nothing else: siblings are served,
    /// and the exit class stays clean.
    #[test]
    fn client_disconnect_is_logged_but_never_kills_the_daemon() {
        let dir = temp_dir("connerr");
        let pre = write(&dir, "pre.c", &pre_source());
        let post = write(&dir, "post.c", &post_source());
        let target = write(&dir, "kernel.c", &buggy_target());
        let sock = dir.join("seal.sock");
        let metrics = dir.join("metrics.json");
        let daemon = SockDaemon::spawn(&sock, &["--metrics", metrics.to_str().unwrap()], &[]);
        daemon.wait_ready();

        // Send a slow request and vanish: by the time the response is
        // ready, the peer is gone and the write fails.
        {
            let mut ghost = Client::connect(&sock);
            ghost.send(&format!(
                r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","jobs":1}}"#,
                pre.display(),
                post.display(),
                target.display()
            ));
            ghost.stream.shutdown(std::net::Shutdown::Both).unwrap();
        }

        // A sibling is served as if nothing happened.
        let mut c = Client::connect(&sock);
        c.ping();
        c.shutdown_daemon();
        let (code, stderr) = daemon.wait();
        assert_eq!(
            code, 0,
            "a connection I/O error must not dirty the exit class: {stderr}"
        );
        assert!(
            stderr.contains("connection error"),
            "dropped write was not logged: {stderr}"
        );
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            snapshot.contains("serve.conn_errors"),
            "serve.conn_errors missing from metrics: {snapshot}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shutdown during in-flight work: the drain lets the in-flight hunt
    /// finish (its client still gets the byte-identical response), and the
    /// final atomic flush leaves a store that reloads with zero
    /// invalidations.
    #[test]
    fn shutdown_drains_in_flight_work_and_store_reloads_cleanly() {
        let dir = temp_dir("drain");
        let cache_dir = dir.join("cache");
        let pre = write(&dir, "pre.c", &pre_source());
        let post = write(&dir, "post.c", &post_source());
        let target = write(&dir, "kernel.c", &buggy_target());
        let reference = cli_stdout(&[
            "hunt",
            "--pre",
            pre.to_str().unwrap(),
            "--post",
            post.to_str().unwrap(),
            "--target",
            target.to_str().unwrap(),
            "--jobs",
            "1",
        ]);
        let sock = dir.join("seal.sock");
        let daemon = SockDaemon::spawn(
            &sock,
            &["--cache-dir", cache_dir.to_str().unwrap(), "--cache", "rw"],
            &[],
        );
        daemon.wait_ready();

        let mut worker = Client::connect(&sock);
        worker.send(&format!(
            r#"{{"cmd":"hunt","pre":"{}","post":"{}","target":"{}","jobs":1}}"#,
            pre.display(),
            post.display(),
            target.display()
        ));
        // Shut down from a second connection while the hunt is in flight.
        let mut closer = Client::connect(&sock);
        closer.shutdown_daemon();

        // The drain waits for the worker: its response still arrives and
        // still matches the CLI byte for byte.
        let r = worker.read_json();
        assert_ok_item(&r);
        assert_eq!(output(&r), reference, "drained response drifted from CLI");
        let (code, stderr) = daemon.wait();
        assert_eq!(code, 0, "stderr: {stderr}");

        // The final atomic flush wrote a store that reloads cleanly.
        let store = seal_store::Store::open(Path::new(&cache_dir), seal_store::CacheMode::ReadOnly)
            .unwrap();
        let st = store.stats();
        assert_eq!(st.invalidations, 0, "drained store is torn");
        assert!(st.disk_entries > 0, "drained store is empty");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
