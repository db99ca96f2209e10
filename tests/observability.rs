//! Golden-trace suite: the observability layer's determinism contract,
//! checked through the real binary on committed corpus data.
//!
//! `seal hunt` runs on two committed patch pairs against the committed
//! target kernel at `--jobs 1` and `--jobs 4`; after masking durations the
//! trace files must be byte-identical, and the deterministic subset of the
//! metrics must be byte-identical — across job counts and across repeated
//! runs. This catches both nondeterminism (scheduling leaking into span
//! order or counters) and silently-dropped instrumentation (the expected
//! span names and metrics are asserted by name).

use seal::obs::{metrics::MetricValue, MetricsSnapshot, TraceData};
use std::path::{Path, PathBuf};
use std::process::Command;

fn seal_bin() -> &'static str {
    env!("CARGO_BIN_EXE_seal")
}

fn data(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seal-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `hunt` on the committed corpus data and returns the raw trace and
/// metrics file contents.
fn hunt(dir: &Path, jobs: u32, run: u32) -> (String, String) {
    let trace = dir.join(format!("trace-j{jobs}-r{run}.jsonl"));
    let metrics = dir.join(format!("metrics-j{jobs}-r{run}.json"));
    let out = Command::new(seal_bin())
        .args([
            "hunt",
            "--pre",
            &format!("{},{}", data("npd-check.pre.c"), data("uaf-order.pre.c")),
            "--post",
            &format!("{},{}", data("npd-check.post.c"), data("uaf-order.post.c")),
            "--target",
            &data("target.c"),
            "--jobs",
            &jobs.to_string(),
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "hunt failed (jobs={jobs}):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read_to_string(&trace).unwrap(),
        std::fs::read_to_string(&metrics).unwrap(),
    )
}

/// The deterministic subset of a metrics file, as comparable text.
fn det_metrics(raw: &str) -> String {
    let snap = MetricsSnapshot::parse(raw).expect("metrics file parses");
    snap.det_only().to_json()
}

#[test]
fn trace_and_det_metrics_identical_across_job_counts_and_runs() {
    let dir = temp_dir("golden");
    let (t_j1_r1, m_j1_r1) = hunt(&dir, 1, 1);
    let (t_j1_r2, m_j1_r2) = hunt(&dir, 1, 2);
    let (t_j4_r1, m_j4_r1) = hunt(&dir, 4, 1);
    let (t_j4_r2, m_j4_r2) = hunt(&dir, 4, 2);

    let masked: Vec<String> = [&t_j1_r1, &t_j1_r2, &t_j4_r1, &t_j4_r2]
        .iter()
        .map(|t| seal::obs::trace::mask_durations(t))
        .collect();
    assert_eq!(masked[0], masked[1], "trace differs across runs at jobs=1");
    assert_eq!(masked[2], masked[3], "trace differs across runs at jobs=4");
    assert_eq!(
        masked[0], masked[2],
        "trace structure differs between jobs=1 and jobs=4"
    );

    let det: Vec<String> = [&m_j1_r1, &m_j1_r2, &m_j4_r1, &m_j4_r2]
        .iter()
        .map(|m| det_metrics(m))
        .collect();
    assert_eq!(det[0], det[1], "det metrics differ across runs at jobs=1");
    assert_eq!(det[2], det[3], "det metrics differ across runs at jobs=4");
    assert_eq!(
        det[0], det[2],
        "det metrics differ between jobs=1 and jobs=4"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full bench-matrix worker counts: the masked trace and the
/// deterministic metrics are invariant for jobs ∈ {1, 2, 4, 8} with the
/// shard-local interner and arena-backed PDG on (the defaults). This
/// covers the seeded `solver.interner.nodes` counter in particular — each
/// shard's cache reports only nodes interned beyond the shared snapshot,
/// so the total cannot drift with the shard-to-worker assignment.
#[test]
fn det_metrics_invariant_across_matrix_worker_counts() {
    let dir = temp_dir("matrix");
    let runs: Vec<(String, String)> = [1u32, 2, 4, 8]
        .iter()
        .map(|&jobs| hunt(&dir, jobs, 1))
        .collect();
    let trace0 = seal::obs::trace::mask_durations(&runs[0].0);
    let det0 = det_metrics(&runs[0].1);
    for (i, (trace, metrics)) in runs.iter().enumerate().skip(1) {
        let jobs = [1, 2, 4, 8][i];
        assert_eq!(
            trace0,
            seal::obs::trace::mask_durations(trace),
            "masked trace differs between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            det0,
            det_metrics(metrics),
            "det metrics differ between jobs=1 and jobs={jobs}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_has_the_expected_span_tree() {
    let dir = temp_dir("structure");
    let (trace, _) = hunt(&dir, 2, 1);
    let data = TraceData::parse_jsonl(&trace).expect("trace file parses");
    let flat = data.flatten();
    let names: Vec<&str> = flat.iter().map(|(_, r)| r.name).collect();

    // Every stage the pipeline ran must be instrumented; a silently dropped
    // span shows up as a missing name here.
    for expected in [
        "cli.infer",
        "cli.detect",
        "infer.patch",
        "patch.compile",
        "frontend.compile",
        "ir.lower",
        "infer.diff",
        "infer.extract",
        "detect.shard",
        "pdg.build",
        "detect.search",
    ] {
        assert!(
            names.contains(&expected),
            "span `{expected}` missing from trace; got: {names:?}"
        );
    }

    // Two patches were inferred: exactly two task roots with their ids.
    let patch_roots: Vec<_> = data
        .roots
        .iter()
        .filter(|r| r.name == "infer.patch")
        .collect();
    assert_eq!(patch_roots.len(), 2);
    let ids: Vec<&str> = patch_roots
        .iter()
        .map(|r| {
            r.fields
                .iter()
                .find(|(k, _)| *k == "id")
                .unwrap()
                .1
                .as_str()
        })
        .collect();
    assert_eq!(ids, ["patch-1", "patch-2"], "canonical root order");

    // Nesting: every patch root holds one patch.compile with two
    // frontend.compile children (pre + post) and two ir.lower children.
    for root in &patch_roots {
        let compile: Vec<_> = root
            .children
            .iter()
            .filter(|c| c.name == "patch.compile")
            .collect();
        assert_eq!(compile.len(), 1, "one compile per patch");
        let fronts = compile[0]
            .children
            .iter()
            .filter(|c| c.name == "frontend.compile")
            .count();
        let lowers = compile[0]
            .children
            .iter()
            .filter(|c| c.name == "ir.lower")
            .count();
        assert_eq!((fronts, lowers), (2, 2), "pre+post under patch.compile");
    }

    // Every detect.shard root nests at least one pdg.build.
    for shard in data.roots.iter().filter(|r| r.name == "detect.shard") {
        assert!(
            shard.children.iter().any(|c| c.name == "pdg.build"),
            "shard without a pdg.build child: {shard:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// On a cold hunt the target frontend runs inside `cli.detect`, under its
/// own `frontend.compile` span (next to the patches' pre/post compiles),
/// so the ledger books it to the frontend layer instead of request glue.
#[test]
fn target_frontend_is_attributed_under_cli_detect() {
    let dir = temp_dir("target-frontend");
    let (trace, _) = hunt(&dir, 1, 1);
    let data = TraceData::parse_jsonl(&trace).expect("trace file parses");
    let detect: Vec<_> = data
        .roots
        .iter()
        .filter(|r| r.name == "cli.detect")
        .collect();
    assert_eq!(detect.len(), 1, "one cli.detect root per hunt");
    let fronts: Vec<_> = detect[0]
        .children
        .iter()
        .filter(|c| c.name == "frontend.compile")
        .collect();
    assert_eq!(fronts.len(), 1, "cli.detect children: {:?}", detect[0]);
    assert!(
        fronts[0]
            .fields
            .iter()
            .any(|(k, v)| *k == "ver" && v == "target"),
        "target compile is tagged ver=target: {:?}",
        fronts[0]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `seal stats` self times on a traced jobs=1 hunt: subtracting the
/// detached `infer.patch`/`detect.shard` roots from the request spans that
/// issued them makes the self times sum to the wall time of the request
/// spans, and leaves `cli.detect` with only its own glue.
#[test]
fn self_times_partition_a_jobs_1_hunt() {
    let dir = temp_dir("self-time");
    let (trace, _) = hunt(&dir, 1, 1);
    let data = TraceData::parse_jsonl(&trace).expect("trace file parses");
    let issuers = seal::request::TASK_ROOT_ISSUERS;
    let totals = data.span_totals(issuers);
    let issued = |name: &str| issuers.iter().any(|(root, _)| *root == name);
    let root_us: u64 = data
        .roots
        .iter()
        .filter(|r| !issued(r.name))
        .map(|r| r.dur_us)
        .sum();
    let self_us: u64 = totals.values().map(|t| t.self_us).sum();
    // Durations are truncated to whole microseconds per span, so a child
    // can read up to 1 us longer than its share of the parent; the clamp
    // at zero may keep that much per name.
    let slack = totals.len() as u64;
    assert!(
        self_us >= root_us && self_us <= root_us + slack,
        "self times {self_us} us do not partition the {root_us} us of request spans"
    );
    let shards: u64 = data
        .roots
        .iter()
        .filter(|r| r.name == "detect.shard")
        .map(|r| r.dur_us)
        .sum();
    let detect = totals["cli.detect"];
    assert!(shards > 0, "the hunt ran detection shards");
    assert!(
        detect.self_us + shards <= detect.total_us,
        "cli.detect self time {} still includes the shards' {} us",
        detect.self_us,
        shards
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_cover_every_instrumented_subsystem() {
    let dir = temp_dir("metrics");
    let (_, metrics) = hunt(&dir, 2, 1);
    let snap = MetricsSnapshot::parse(&metrics).expect("metrics file parses");

    for expected in [
        "frontend.compiles",
        "ir.lower.functions",
        "infer.specs",
        "diff.paths.added",
        "pdg.builds",
        "pdg.nodes",
        "pdg.edges",
        "pdg.nodes_per_build",
        "slice.paths",
        "solver.cache.queries",
        "solver.cache.hits",
        "solver.interner.nodes",
        "solver.sat.calls",
        "detect.callgraph_builds",
        "detect.regions",
        "detect.shards",
        "detect.shard_hits",
        "detect.shard_misses",
        "detect.reports",
        "detect.solver_queries",
        "detect.solver_cache_hits",
        "pool.tasks",
    ] {
        assert!(
            snap.metrics.contains_key(expected),
            "metric `{expected}` missing; got: {:?}",
            snap.metrics.keys().collect::<Vec<_>>()
        );
    }

    // Every shard is replayed or computed: the reuse counters partition
    // `detect.shards` (all misses here, the run has no cache).
    let count = |name: &str| match snap.metrics[name].value {
        MetricValue::Counter(c) => c,
        ref other => panic!("{name} is not a counter: {other:?}"),
    };
    assert!(count("detect.shards") > 0);
    assert_eq!(
        count("detect.shard_hits") + count("detect.shard_misses"),
        count("detect.shards")
    );
    assert_eq!(count("detect.shard_hits"), 0);

    // Spot-check semantics: 2 patches × 2 versions compiled, and the
    // committed npd-check patch yields exactly one report in the target.
    assert_eq!(
        snap.metrics["frontend.compiles"].value,
        MetricValue::Counter(4)
    );
    assert_eq!(
        snap.metrics["detect.reports"].value,
        MetricValue::Counter(1)
    );
    assert!(snap.metrics["frontend.compiles"].det);
    // The histogram aggregates every PDG build.
    match &snap.metrics["pdg.nodes_per_build"].value {
        MetricValue::Hist { count, sum, .. } => {
            assert!(*count > 0 && *sum > 0, "empty pdg histogram");
        }
        other => panic!("pdg.nodes_per_build is not a histogram: {other:?}"),
    }
    // Pool scheduling metrics must never be part of the det contract.
    for nd in [
        "pool.injector_refills",
        "pool.queue_depth_max",
        "pool.workers_max",
        "pool.park_count",
        "pool.injector_wait_ns",
    ] {
        if let Some(m) = snap.metrics.get(nd) {
            assert!(!m.det, "{nd} must be nondeterministic");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_subcommand_renders_tables() {
    let dir = temp_dir("stats");
    let trace = dir.join("t.jsonl");
    let metrics = dir.join("m.json");
    let out = Command::new(seal_bin())
        .args([
            "hunt",
            "--pre",
            &data("npd-check.pre.c"),
            "--post",
            &data("npd-check.post.c"),
            "--target",
            &data("target.c"),
            "--jobs",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = Command::new(seal_bin())
        .args([
            "stats",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "span",
        "count",
        "total_ms",
        "self_ms",
        "pdg.build",
        "detect.shard",
        "metric",
        "solver.cache.queries",
    ] {
        assert!(
            stdout.contains(needle),
            "stats output missing `{needle}`:\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
