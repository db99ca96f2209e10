//! End-to-end contract tests for the incremental artifact cache: cached
//! runs are byte-identical to uncached ones at any worker count, stale or
//! corrupt stores degrade to recompute (never to wrong output, never to a
//! panic), and the CLI surface validates its flags.

use seal_core::{detect_bugs_isolated_cached, AnalysisCache, DetectConfig, ModuleFacts, Seal};
use seal_spec::Specification;
use seal_store::CacheMode;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seal-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_corpus() -> seal_corpus::Corpus {
    seal_corpus::generate(&seal_corpus::CorpusConfig {
        seed: 11,
        drivers_per_template: 4,
        bug_rate: 0.3,
        patches_per_template: 1,
        refactor_patches: 1,
        scale: 1,
    })
}

/// Canonical rendering of one full pipeline pass (specs + reports).
fn run_rendered(
    corpus: &seal_corpus::Corpus,
    target: &seal_ir::Module,
    jobs: usize,
    cache: &AnalysisCache,
    detect: &DetectConfig,
) -> String {
    let seal = Seal {
        cache: cache.clone(),
        detect: *detect,
        ..Seal::default()
    };
    let mut specs: Vec<Specification> = Vec::new();
    for patch in &corpus.patches {
        specs.extend(seal.infer(patch).expect("corpus patches compile"));
    }
    let (reports, stats, errors) = detect_bugs_isolated_cached(
        target,
        &ModuleFacts::new(target),
        &specs,
        &seal.detect,
        jobs,
        cache,
    );
    assert!(errors.is_empty(), "{errors:?}");
    let mut out = String::new();
    for s in &specs {
        out.push_str(&seal_spec::parse::to_line(s));
        out.push('\n');
    }
    for r in &reports {
        out.push_str(&format!("{r}\n"));
    }
    out.push_str(&format!(
        "q={} h={} p={} s={}\n",
        stats.solver_queries,
        stats.solver_cache_hits,
        stats.subtrees_pruned,
        stats.sources_skipped_unreachable
    ));
    out
}

#[test]
fn cold_warm_and_off_runs_are_byte_identical_across_jobs() {
    let dir = temp_dir("coldwarm");
    let mut corpus = tiny_corpus();
    let target = corpus.target_module();
    let cfg = DetectConfig::default();

    let off = run_rendered(&corpus, &target, 1, &AnalysisCache::disabled(), &cfg);

    let cold_cache = AnalysisCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let cold = run_rendered(&corpus, &target, 1, &cold_cache, &cfg);
    assert!(cold_cache.stats().misses > 0, "cold run must populate");
    cold_cache.flush().unwrap();

    for jobs in [1usize, 4] {
        let warm_cache = AnalysisCache::open(&dir, CacheMode::ReadOnly).unwrap();
        let warm = run_rendered(&corpus, &target, jobs, &warm_cache, &cfg);
        assert_eq!(off, warm, "cache-off vs warm differ at jobs={jobs}");
        assert_eq!(cold, warm, "cold vs warm differ at jobs={jobs}");
        let s = warm_cache.stats();
        assert!(s.hits > 0, "warm run served nothing at jobs={jobs}");
        assert_eq!(s.misses, 0, "warm run missed at jobs={jobs}");
    }

    // Every tenth patch gains one identical, unused helper on both sides:
    // its diff and specs stay the same, but its raw and semantic keys
    // move. Over the populated store the edited patches miss, the rest
    // hit, fewer lookups miss than cold, and the output still matches an
    // uncached run on the edited corpus.
    for p in corpus.patches.iter_mut().step_by(10) {
        let pad = "\nint seal_mut_pad(int x) { return x + 1; }\n";
        p.pre.push_str(pad);
        p.post.push_str(pad);
    }
    let edited_off = run_rendered(&corpus, &target, 1, &AnalysisCache::disabled(), &cfg);
    let edited_cache = AnalysisCache::open(&dir, CacheMode::ReadOnly).unwrap();
    let edited_warm = run_rendered(&corpus, &target, 1, &edited_cache, &cfg);
    assert_eq!(
        edited_off, edited_warm,
        "cached run on the edited corpus differs"
    );
    let (cold_stats, s) = (cold_cache.stats(), edited_cache.stats());
    assert!(s.misses > 0, "edited patches produced no cache misses");
    assert!(s.hits > 0, "edited corpus produced no cache hits");
    assert!(
        s.misses < cold_stats.misses,
        "edited corpus recomputed everything (misses {} vs cold {})",
        s.misses,
        cold_stats.misses
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_degrades_to_recompute_with_identical_output() {
    let dir = temp_dir("corrupt");
    let corpus = tiny_corpus();
    let target = corpus.target_module();
    let cfg = DetectConfig::default();
    let reference = run_rendered(&corpus, &target, 1, &AnalysisCache::disabled(), &cfg);

    let store_path = dir.join(seal_store::STORE_FILE);
    let populate = || {
        let c = AnalysisCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let _ = run_rendered(&corpus, &target, 1, &c, &cfg);
        c.flush().unwrap();
    };
    populate();
    let clean = std::fs::read(&store_path).unwrap();
    assert!(clean.len() > 64, "store unexpectedly small");

    // Seeded corruption: truncations at several depths, single byte flips
    // across the file, and wholesale garbage.
    let mut corruptions: Vec<(String, Vec<u8>)> = Vec::new();
    for cut in [3usize, 15, 17, clean.len() / 2, clean.len() - 1] {
        corruptions.push((format!("truncate@{cut}"), clean[..cut].to_vec()));
    }
    for pos in [0usize, 9, 16, 24, clean.len() / 3, clean.len() - 2] {
        let mut c = clean.clone();
        c[pos] ^= 0x41;
        corruptions.push((format!("flip@{pos}"), c));
    }
    corruptions.push(("garbage".into(), b"not a seal store at all".to_vec()));

    for (label, bytes) in corruptions {
        std::fs::write(&store_path, &bytes).unwrap();
        let cache = AnalysisCache::open(&dir, CacheMode::ReadOnly).unwrap();
        let got = run_rendered(&corpus, &target, 1, &cache, &cfg);
        assert_eq!(reference, got, "output changed under corruption `{label}`");
        // Restore the clean store so every corruption starts from the
        // same bytes.
        std::fs::write(&store_path, &clean).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_fingerprint_change_invalidates_without_stale_reuse() {
    let dir = temp_dir("fingerprint");
    let corpus = tiny_corpus();
    let target = corpus.target_module();
    let default_cfg = DetectConfig::default();

    let warm = AnalysisCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let _ = run_rendered(&corpus, &target, 1, &warm, &default_cfg);
    warm.flush().unwrap();

    // Any detect-config field move must shift the shard keys: the warmed
    // entries may not be served, and the output must equal an uncached run
    // under the *new* config.
    let changed_cfg = DetectConfig {
        max_regions: default_cfg.max_regions + 1,
        ..default_cfg
    };
    let reference = run_rendered(
        &corpus,
        &target,
        1,
        &AnalysisCache::disabled(),
        &changed_cfg,
    );
    let cache = AnalysisCache::open(&dir, CacheMode::ReadOnly).unwrap();
    let got = run_rendered(&corpus, &target, 1, &cache, &changed_cfg);
    assert_eq!(reference, got, "stale shard served across a config change");
    let s = cache.stats();
    assert!(
        s.misses > 0,
        "changed detect config produced no shard misses (hits={}, misses=0)",
        s.hits
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------ moved globals ----

/// A target whose one kmalloc region reaches its dereference through the
/// global `g_buf`, so the report's witness cites `g_buf`'s definition
/// line. `globals` orders three lines before the functions: `b` defines
/// `g_buf`, `o` defines `g_other` (named only by a function with no
/// region), `d` declares an API. Every function stays on its line.
fn global_target(globals: &str) -> seal_ir::Module {
    let mut src = String::from("void *kmalloc(unsigned long n);\n");
    for c in globals.chars() {
        src.push_str(match c {
            'b' => "int *g_buf;\n",
            'o' => "int g_other = 5;\n",
            _ => "void ext(int x);\n",
        });
    }
    src.push_str(
        "int unchecked(int x) {\n\
         \x20   g_buf = (int *)kmalloc(8);\n\
         \x20   int *p = g_buf;\n\
         \x20   *p = x;\n\
         \x20   return 0;\n\
         }\n\
         int other(int x) { ext(x); return g_other; }\n",
    );
    seal_ir::lower(&seal_kir::compile(&src, "t.c").unwrap())
}

/// A hand-written NULL-dereference spec on `kmalloc`'s result.
fn kmalloc_npd_spec() -> Specification {
    use seal_solver::{CmpOp, Formula};
    use seal_spec::{Constraint, Provenance, Quantifier, Relation, SpecUse, SpecValue};
    Specification {
        interface: None,
        constraints: vec![Constraint {
            quantifier: Quantifier::NotExists,
            relation: Relation::Reach {
                value: SpecValue::ret_of("kmalloc"),
                use_: SpecUse::Deref,
                cond: Formula::cmp(SpecValue::ret_of("kmalloc"), CmpOp::Eq, 0),
            },
        }],
        origin_patch: "hand-written".into(),
        provenance: Provenance::CondChanged,
    }
}

fn detect_rendered(target: &seal_ir::Module, jobs: usize, cache: &AnalysisCache) -> String {
    let (reports, _, errors) = detect_bugs_isolated_cached(
        target,
        &ModuleFacts::new(target),
        &[kmalloc_npd_spec()],
        &DetectConfig::default(),
        jobs,
        cache,
    );
    assert!(errors.is_empty(), "{errors:?}");
    reports.iter().map(|r| format!("{r}\n")).collect()
}

/// A global's definition line reaches a report only through a scope body
/// that names it, so moving that global — no body byte changes — must miss
/// the shard and print the new line, while moving a global no scope body
/// names must hit.
#[test]
fn moved_global_invalidates_exactly_the_shards_whose_bodies_name_it() {
    let dir = temp_dir("moved-global");
    let base = global_target("bdo");
    let populate = AnalysisCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let before = detect_rendered(&base, 1, &populate);
    populate.flush().unwrap();
    let g_buf_line = |m: &seal_ir::Module| m.global("g_buf").unwrap().span.line;
    let witness_of = |line: u32| format!("-> {line} ->");
    assert!(
        before.contains(&witness_of(g_buf_line(&base))),
        "witness does not cite g_buf's line {}:\n{before}",
        g_buf_line(&base)
    );

    let named_moved = global_target("dbo");
    let unrelated_moved = global_target("bod");
    assert_ne!(g_buf_line(&base), g_buf_line(&named_moved));
    assert_eq!(g_buf_line(&base), g_buf_line(&unrelated_moved));
    for m in [&named_moved, &unrelated_moved] {
        for f in &base.functions {
            let g = m.function(&f.name).unwrap();
            assert_eq!(seal_ir::codec::body_hash(f), seal_ir::codec::body_hash(g));
        }
    }

    for jobs in [1usize, 2] {
        let cache = AnalysisCache::open(&dir, CacheMode::ReadOnly).unwrap();
        let got = detect_rendered(&named_moved, jobs, &cache);
        assert_eq!(
            got,
            detect_rendered(&named_moved, jobs, &AnalysisCache::disabled()),
            "jobs={jobs}"
        );
        assert!(got.contains(&witness_of(g_buf_line(&named_moved))), "{got}");
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (0, 1),
            "jobs={jobs}: named global moved"
        );

        let cache = AnalysisCache::open(&dir, CacheMode::ReadOnly).unwrap();
        let got = detect_rendered(&unrelated_moved, jobs, &cache);
        assert_eq!(
            got,
            detect_rendered(&unrelated_moved, jobs, &AnalysisCache::disabled()),
            "jobs={jobs}"
        );
        assert_eq!(got, before, "jobs={jobs}");
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, 0),
            "jobs={jobs}: unrelated global moved"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- CLI ----

fn seal_bin() -> &'static str {
    env!("CARGO_BIN_EXE_seal")
}

const PRE: &str = "
struct ops { int (*prep)(int *p); };
int do_prep(int *p) { return *p; }
struct ops t = { .prep = do_prep, };
";
const POST: &str = "
struct ops { int (*prep)(int *p); };
int do_prep(int *p) { if (p == NULL) return -22; return *p; }
struct ops t = { .prep = do_prep, };
";

/// The text with an empty line inserted before the line at 90% of it:
/// the program is unchanged, every function and global below moves.
fn insert_blank_line_at_90pct(text: &str) -> String {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let at = lines.len() * 9 / 10;
    let mut out = String::with_capacity(text.len() + 1);
    for (i, line) in lines.iter().enumerate() {
        if i == at {
            out.push('\n');
        }
        out.push_str(line);
    }
    out
}

fn counter(snap: &seal::obs::MetricsSnapshot, name: &str) -> u64 {
    match snap.metrics.get(name).map(|m| &m.value) {
        Some(seal::obs::metrics::MetricValue::Counter(c)) => *c,
        other => panic!("counter `{name}` missing or mistyped: {other:?}"),
    }
}

/// The common edit: one line inserted near the end of the target. Only
/// shards whose scope bodies, or the globals they name, sit below the
/// line may miss; the cached rerun must print what an uncached run does.
#[test]
fn line_inserted_near_the_end_of_the_target_reuses_most_shards() {
    let dir = temp_dir("line-shift");
    let corpus = seal_corpus::generate(&seal_corpus::CorpusConfig {
        seed: 5,
        drivers_per_template: 8,
        bug_rate: 0.3,
        patches_per_template: 2,
        refactor_patches: 1,
        scale: 1,
    });
    let tree = seal_corpus::files::write_to_dir(&corpus, &dir.join("tree")).unwrap();
    let list = |paths: Vec<&PathBuf>| {
        let v: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
        v.join(",")
    };
    let pre = list(tree.patch_files.iter().map(|(_, p, _)| p).collect());
    let post = list(tree.patch_files.iter().map(|(_, _, p)| p).collect());
    let target = &tree.kernel_files[0];
    let store = dir.join("store");
    let hunt = |jobs: usize, extra: &[&std::ffi::OsStr]| {
        let out = Command::new(seal_bin())
            .args([
                "hunt",
                "--jobs",
                &jobs.to_string(),
                "--pre",
                &pre,
                "--post",
                &post,
            ])
            .arg("--target")
            .arg(target)
            .args(extra)
            .env_remove("SEAL_CACHE_DIR")
            .env_remove("SEAL_CACHE")
            .env_remove("SEAL_JOBS")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "hunt failed (jobs={jobs}):\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };

    hunt(1, &["--cache-dir".as_ref(), store.as_os_str()]);
    let text = std::fs::read_to_string(target).unwrap();
    std::fs::write(target, insert_blank_line_at_90pct(&text)).unwrap();
    let uncached = hunt(1, &[]);

    for jobs in [1usize, 2] {
        let metrics = dir.join(format!("metrics-j{jobs}.json"));
        let got = hunt(
            jobs,
            &[
                "--cache-dir".as_ref(),
                store.as_os_str(),
                "--cache".as_ref(),
                "ro".as_ref(),
                "--metrics".as_ref(),
                metrics.as_os_str(),
            ],
        );
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&uncached),
            "jobs={jobs}"
        );
        let snap =
            seal::obs::MetricsSnapshot::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let shards = counter(&snap, "detect.shards");
        let hits = counter(&snap, "detect.shard_hits");
        assert_eq!(hits + counter(&snap, "detect.shard_misses"), shards);
        assert!(
            shards > 0 && hits * 5 >= shards * 4,
            "jobs={jobs}: {hits} of {shards} shards replayed"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_cache_mode_without_dir_is_an_error() {
    let dir = temp_dir("cli-nodir");
    let pre = dir.join("pre.c");
    let post = dir.join("post.c");
    std::fs::write(&pre, PRE).unwrap();
    std::fs::write(&post, POST).unwrap();
    let out = Command::new(seal_bin())
        .args(["infer", "--pre"])
        .arg(&pre)
        .arg("--post")
        .arg(&post)
        .args(["--cache", "rw"])
        .env_remove("SEAL_CACHE_DIR")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--cache needs --cache-dir"),
        "unexpected stderr: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_cache_off_writes_no_store_and_env_dir_is_honored() {
    let dir = temp_dir("cli-env");
    let pre = dir.join("pre.c");
    let post = dir.join("post.c");
    std::fs::write(&pre, PRE).unwrap();
    std::fs::write(&post, POST).unwrap();

    // `--cache off` with a directory: the run works, nothing is stored.
    let off_store = dir.join("off-store");
    let out = Command::new(seal_bin())
        .args(["infer", "--pre"])
        .arg(&pre)
        .arg("--post")
        .arg(&post)
        .arg("--cache-dir")
        .arg(&off_store)
        .args(["--cache", "off"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !off_store.join(seal_store::STORE_FILE).exists(),
        "--cache off still wrote a store"
    );

    // The directory can come from SEAL_CACHE_DIR alone; two runs must
    // produce identical stdout and the second must leave a store behind.
    let env_store = dir.join("env-store");
    let run = || {
        Command::new(seal_bin())
            .args(["infer", "--pre"])
            .arg(&pre)
            .arg("--post")
            .arg(&post)
            .env("SEAL_CACHE_DIR", &env_store)
            .output()
            .unwrap()
    };
    let first = run();
    let second = run();
    assert!(first.status.success() && second.status.success());
    assert_eq!(first.stdout, second.stdout, "warm CLI run changed output");
    assert!(
        env_store.join(seal_store::STORE_FILE).exists(),
        "SEAL_CACHE_DIR run wrote no store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
