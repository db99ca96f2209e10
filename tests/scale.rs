//! The gated scale suite (`SEAL_SCALE=1 cargo test --release --test
//! scale`): a corpus 10x the evaluation size must keep the precision
//! band, full recall, a peak-RSS ceiling, and a throughput floor — with
//! the streamed, disk-spilled pipeline byte-identical to the materialized
//! one. A 100x generator pass and a spill-corruption drill ride along.
//!
//! Gated at runtime via [`seal::testing::scale_gate`] instead of
//! `#[ignore]` so the tier-1 suites stay free of ignored tests (CI fails
//! on any). Peak RSS per row needs its own process (VmHWM is monotonic
//! over a process lifetime), so the 10x rows run through the `seal
//! scale-run` subcommand.

use seal::corpus::stream::{total_drivers, total_patches, CorpusStream, StreamItem};
use seal::json::Json;
use seal::scale::{eval_base_config, render_reports, ScaleOptions, ScaleRun};
use seal::testing::scale_gate;
use std::path::{Path, PathBuf};
use std::process::Command;

fn seal_bin() -> &'static str {
    env!("CARGO_BIN_EXE_seal")
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seal-scale-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Runs one `seal scale-run` row in a child process and parses its JSON
/// summary line.
fn scale_row(args: &[&str]) -> Json {
    let out = Command::new(seal_bin())
        .arg("scale-run")
        .args(args)
        .output()
        .expect("spawn seal scale-run");
    assert!(
        out.status.success(),
        "scale-run {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().last().expect("scale-run prints a summary");
    Json::parse(line).expect("scale-run summary parses")
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing numeric field `{key}`"))
}

/// Env-overridable numeric knob for machine-dependent budgets.
fn knob(env: &str, default: f64) -> f64 {
    std::env::var(env)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The 10x tier: streamed (always-spill) and materialized rows run as
/// child processes; the streamed run must keep the score bands under a
/// hard peak-RSS ceiling and a throughput floor, and its reports must be
/// byte-identical to the materialized run's.
#[test]
fn ten_x_streamed_keeps_bands_under_rss_ceiling() {
    if !scale_gate("ten_x_streamed_keeps_bands_under_rss_ceiling") {
        return;
    }
    let dir = tmp("10x");
    let streamed_reports = dir.join("streamed.reports");
    let materialized_reports = dir.join("materialized.reports");

    let streamed = scale_row(&[
        "--scale",
        "10",
        "--jobs",
        "4",
        "--mode",
        "streamed",
        "--max-rss-mb",
        "0",
        "--reports-out",
        streamed_reports.to_str().unwrap(),
    ]);
    let materialized = scale_row(&[
        "--scale",
        "10",
        "--jobs",
        "4",
        "--mode",
        "materialized",
        "--reports-out",
        materialized_reports.to_str().unwrap(),
    ]);

    // Same analysis, whichever path ran it.
    assert_eq!(
        std::fs::read(&streamed_reports).unwrap(),
        std::fs::read(&materialized_reports).unwrap(),
        "streamed and materialized reports diverged at 10x"
    );
    assert_eq!(
        streamed.get("fingerprint").and_then(Json::as_str),
        materialized.get("fingerprint").and_then(Json::as_str),
    );

    // Score bands (the seeded corpus is deterministic, so these are exact
    // properties of the pipeline, not flaky estimates).
    let recall = num(&streamed, "recall");
    let precision = num(&streamed, "precision");
    assert!(recall >= 0.95, "recall {recall:.3}");
    assert!(
        (0.55..=0.90).contains(&precision),
        "precision {precision:.3} outside the expected band"
    );

    // The streamed path actually spilled and reloaded.
    let spill = streamed.get("spill").expect("spill counters");
    assert!(num(spill, "writes") > 0.0, "no spill writes at 10x");
    assert!(num(spill, "reads") > 0.0, "no spill reads at 10x");
    assert_eq!(num(&streamed, "store_errors"), 0.0);

    // Peak RSS: hard ceiling on the streamed row (override with
    // SEAL_SCALE_RSS_MB on unusual allocators), and a relative bound —
    // streaming must cost at most half the materialized peak.
    let ceiling_kb = knob("SEAL_SCALE_RSS_MB", 512.0) * 1024.0;
    let streamed_rss = num(&streamed, "rss_peak_kb");
    let materialized_rss = num(&materialized, "rss_peak_kb");
    assert!(
        streamed_rss <= ceiling_kb,
        "streamed 10x peak RSS {streamed_rss} kB over the {ceiling_kb} kB ceiling"
    );
    assert!(
        streamed_rss <= materialized_rss * 0.5,
        "streamed peak {streamed_rss} kB > 50% of materialized {materialized_rss} kB"
    );

    // Throughput floor, normalized by the worker count the child actually
    // got (replaces the old wall-clock assertion, which was a constant
    // and thus flaky across hosts). Override with SEAL_SCALE_MIN_IPS.
    let jobs_used = num(&streamed, "jobs");
    let floor = knob("SEAL_SCALE_MIN_IPS", 3.0) * jobs_used;
    let ips = num(&streamed, "items_per_sec");
    assert!(
        ips >= floor,
        "streamed 10x throughput {ips:.2} items/s under the floor {floor:.2} (jobs {jobs_used})"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The 100x tier exercises generation only: the stream must emit exactly
/// the predicted counts without materializing the corpus, and its driver
/// text must match the materialized generator on a sampled prefix config.
#[test]
fn hundred_x_stream_generates_without_materializing() {
    if !scale_gate("hundred_x_stream_generates_without_materializing") {
        return;
    }
    let config = eval_base_config().at_scale(100);
    let mut drivers = 0usize;
    let mut patches = 0usize;
    let mut bytes = 0u64;
    for item in CorpusStream::new(&config) {
        match item {
            StreamItem::Driver(d) => {
                drivers += 1;
                bytes += d.source.len() as u64;
            }
            StreamItem::Patch(p) => {
                patches += 1;
                bytes += (p.patch.pre.len() + p.patch.post.len()) as u64;
            }
        }
    }
    assert_eq!(drivers, total_drivers(&config), "driver count at 100x");
    assert_eq!(patches, total_patches(&config), "patch count at 100x");
    assert!(
        bytes > 100 * 1024 * 1024 / 10,
        "a 100x corpus should stream at least tens of MB, got {bytes}"
    );
}

/// Tiny deterministic corruption source (xorshift64*), independent of the
/// corpus PRNG so this drill never couples to generation internals.
struct Xs(u64);
impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn corrupt(path: &Path, mode: u64, rng: &mut Xs) {
    let mut data = std::fs::read(path).unwrap();
    match mode % 3 {
        0 => {
            // Bit-flip somewhere in the payload.
            let i = (rng.next() as usize) % data.len();
            data[i] ^= 1 << (rng.next() % 8);
        }
        1 => {
            // Truncate to a strict prefix.
            let keep = (rng.next() as usize) % data.len();
            data.truncate(keep);
        }
        _ => {
            // Replace with garbage of the same length.
            for b in data.iter_mut() {
                *b = rng.next() as u8;
            }
        }
    }
    std::fs::write(path, data).unwrap();
}

/// Spill-corruption drill (ungated: small corpus, runs in tier 1): after
/// damaging every spill file in all three ways, detection must degrade to
/// recomputing from the seed — typed store errors, no panic, and reports
/// byte-identical to an undamaged run, at jobs 1 and 4.
#[test]
fn corrupt_spill_files_degrade_to_recompute() {
    let config = seal::corpus::CorpusConfig {
        drivers_per_template: 6,
        patches_per_template: 2,
        refactor_patches: 4,
        ..eval_base_config()
    };
    let opts = |jobs: usize, spill_dir: Option<PathBuf>| ScaleOptions {
        config: config.clone(),
        jobs,
        streamed: true,
        chunk_drivers: 16,
        patch_batch: 8,
        max_rss_mb: spill_dir.as_ref().map(|_| 0),
        spill_dir,
    };

    let mut rng = Xs(0x5EA1_C0DE_D15C_0001);
    for jobs in [1usize, 4] {
        let clean = seal::scale::run(opts(jobs, None)).unwrap();

        let dir = tmp(&format!("corrupt-{jobs}"));
        let run = ScaleRun::prepare(opts(jobs, Some(dir.clone()))).unwrap();
        let spill_dir = run.spill_path().expect("spill dir is armed").to_path_buf();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&spill_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(
            files.len() >= 3,
            "expected several spill files, got {}",
            files.len()
        );
        for (i, f) in files.iter().enumerate() {
            corrupt(f, i as u64, &mut rng);
        }

        let damaged = run.finish().unwrap();
        assert_eq!(
            damaged.store_errors.len(),
            files.len(),
            "every damaged file must surface a typed store error"
        );
        for e in &damaged.store_errors {
            assert_eq!(e.stage(), seal::core::error::Stage::Store, "{e}");
        }
        assert_eq!(damaged.recomputes, files.len() as u64);
        assert_eq!(
            render_reports(&damaged.reports),
            render_reports(&clean.reports),
            "jobs {jobs}: degraded run diverged from the clean run"
        );
        assert_eq!(damaged.score.precision(), clean.score.precision());
        assert_eq!(damaged.score.recall(), clean.score.recall());
        std::fs::remove_dir_all(&dir).ok();
    }
}
