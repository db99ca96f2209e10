//! The shared analysis-request path behind both the CLI and `seal serve`.
//!
//! One `infer`/`detect`/`hunt` request — whether it arrived as command-line
//! flags or as a JSONL line — is normalized into a [`RequestKind`] and
//! executed by [`run_request`] against a [`RunCtx`] (the cache handle and
//! worker count). The result carries the exact bytes a solo CLI run would
//! print to stdout, so the daemon's per-item `output` field and the CLI's
//! stdout cannot drift: they are the same string from the same code path.
//!
//! Fault semantics follow DESIGN.md "Fault tolerance": per-item failures
//! are collected into [`ItemFailure`]s (exit-code class 2), a broken
//! shared substrate (unreadable target, malformed spec file) is a fatal
//! `Err` (class 1).

use seal_core::{AnalysisCache, ModuleFacts, Patch, Seal, SealError};
use seal_spec::merge::merge_specs;
use seal_spec::parse::{parse_lines, to_line};
use seal_spec::Specification;
use std::sync::Arc;

/// The detached task roots a request issues, each with the span that
/// issues it: inference runs one `infer.patch` root per patch under
/// `cli.infer`, detection one `detect.shard` root per shard under
/// `cli.detect`. `seal stats` subtracts them from the issuer's self time
/// ([`seal_obs::TraceData::span_totals`]).
pub const TASK_ROOT_ISSUERS: &[(&str, &str)] =
    &[("infer.patch", "cli.infer"), ("detect.shard", "cli.detect")];

/// One failed batch item, for the stderr summary (CLI) or the per-item
/// `failures` array (daemon).
pub struct ItemFailure {
    /// Item identity: a patch id, a file path, or a shard scope.
    pub id: String,
    /// Pipeline stage the failure is attributed to.
    pub stage: String,
    /// Human-readable cause.
    pub message: String,
}

impl ItemFailure {
    /// A failure attributed from a typed pipeline error.
    pub fn of(id: &str, e: &SealError) -> ItemFailure {
        ItemFailure {
            id: id.to_string(),
            stage: e.stage().to_string(),
            message: e.to_string(),
        }
    }
}

/// One normalized analysis request. File lists carry the same semantics
/// as the CLI's comma-separated flags (`--pre`/`--post` pair up by index,
/// `--target` files are linked into one module).
pub enum RequestKind {
    /// `seal infer`: infer specs from `(pre, post)` patch pairs.
    Infer {
        /// Pre-patch source paths.
        pre: Vec<String>,
        /// Post-patch source paths (same length as `pre`).
        post: Vec<String>,
        /// Patch id (items are suffixed `-1`, `-2`, … when several).
        id: String,
    },
    /// `seal detect`: check a spec dataset against a target.
    Detect {
        /// Target source paths (linked into one module).
        target: Vec<String>,
        /// Path of the specification dataset file.
        specs: String,
    },
    /// `seal hunt`: infer then immediately detect.
    Hunt {
        /// Pre-patch source paths.
        pre: Vec<String>,
        /// Post-patch source paths.
        post: Vec<String>,
        /// Patch id.
        id: String,
        /// Target source paths.
        target: Vec<String>,
    },
}

/// Execution context one request runs against. The daemon builds this
/// once and reuses it for every request — that sharing *is* the warm
/// state (open store, warm memory, spec/module/shard/snapshot reuse).
///
/// `RunCtx` is `Send + Sync` (the cache handle is), so concurrent daemon
/// connections can each run requests against clones of one shared cache
/// without external locking; results stay byte-identical to solo runs
/// because every artifact is content-addressed.
pub struct RunCtx {
    /// The artifact cache (possibly warm-layered, possibly disabled).
    pub cache: AnalysisCache,
    /// Worker count for this request.
    pub jobs: usize,
}

// Concurrent `seal serve` runs requests from many handler threads; the
// context losing `Send + Sync` must fail at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunCtx>();
};

/// What one completed (possibly partially failed) request produced.
pub struct RunResult {
    /// Exactly what a solo CLI run prints to stdout, byte for byte.
    pub stdout: String,
    /// Informational stderr lines (e.g. hunt's inferred-spec echo).
    pub notes: Vec<String>,
    /// Per-item failures (non-empty ⇒ exit-code class 2).
    pub failures: Vec<ItemFailure>,
    /// The merged spec dataset lines (infer only; lets the CLI implement
    /// `--out` without re-running anything).
    pub spec_lines: Vec<String>,
}

impl RunResult {
    /// The exit-code class of this result: 0 all items succeeded, 2 some
    /// failed.
    pub fn code(&self) -> u8 {
        if self.failures.is_empty() {
            0
        } else {
            2
        }
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Infers specifications for every `(pre, post)` pair, isolating failures
/// per patch: survivors come back alongside the failure summary instead of
/// the first bad patch aborting the batch.
fn infer_specs(
    ctx: &RunCtx,
    pre_paths: &[String],
    post_paths: &[String],
    id: &str,
) -> Result<(Vec<Specification>, Vec<ItemFailure>), String> {
    if pre_paths.len() != post_paths.len() {
        return Err(format!(
            "--pre lists {} file(s) but --post lists {}",
            pre_paths.len(),
            post_paths.len()
        ));
    }
    let mut patches = Vec::new();
    let mut failures = Vec::new();
    for (i, (pre_path, post_path)) in pre_paths.iter().zip(post_paths).enumerate() {
        let patch_id = if pre_paths.len() == 1 {
            id.to_string()
        } else {
            format!("{id}-{}", i + 1)
        };
        // An unreadable file fails its own item, not the batch.
        match (read_file(pre_path), read_file(post_path)) {
            (Ok(pre), Ok(post)) => patches.push(Patch::new(patch_id, pre, post)),
            (Err(e), _) | (_, Err(e)) => failures.push(ItemFailure {
                id: patch_id,
                stage: "input".to_string(),
                message: e,
            }),
        }
    }

    // Fault-isolated batch: each patch gets a result slot, survivors are
    // byte-identical to running alone, and the merge in patch-index order
    // keeps the output independent of the worker count.
    let seal = Seal {
        cache: ctx.cache.clone(),
        ..Seal::default()
    };
    let _span = seal_obs::span!("cli.infer", patches = patches.len());
    let results = seal_core::infer_batch(&seal, &patches, ctx.jobs);
    let mut specs = Vec::new();
    for (patch, result) in patches.iter().zip(results) {
        match result {
            Ok(s) => specs.extend(s),
            Err(e) => failures.push(ItemFailure::of(&patch.id, &e)),
        }
    }
    Ok((specs, failures))
}

/// The detection half shared by `detect` and `hunt`. The target is the
/// shared substrate of every check, so a broken target is fatal, not
/// partial.
fn detect_into(
    ctx: &RunCtx,
    target: &[String],
    specs: &[Specification],
    mut failures: Vec<ItemFailure>,
    notes: Vec<String>,
) -> Result<RunResult, String> {
    // The target files are linked into one module (the §7 linking step).
    let mut sources = Vec::new();
    for path in target {
        sources.push((path.clone(), read_file(path)?));
    }
    let sources = Arc::new(sources);
    let _span = seal_obs::span!("cli.detect", targets = target.len());
    // Module-level cache entry: the lowered target keyed on its paths and
    // raw texts, so a warm run skips the frontend and lowering entirely.
    // With the cache off no lookup can hit, so the texts are not hashed.
    let key = ctx
        .cache
        .is_enabled()
        .then(|| ctx.cache.module_key(&sources));
    // The entry carries the module's facts (call graph, memoized hashes),
    // so a warm request re-derives nothing about a target it already holds.
    let (module, facts) = match key.as_ref().and_then(|k| ctx.cache.get_module(k)) {
        Some(hit) => hit,
        None => {
            let module = {
                let tu = {
                    let _span = seal_obs::span!("frontend.compile", ver = "target");
                    let borrowed: Vec<(&str, &str)> = sources
                        .iter()
                        .map(|(p, t)| (p.as_str(), t.as_str()))
                        .collect();
                    seal_kir::compile_many(&borrowed)
                        .map_err(|e| format!("target does not compile:\n{e}"))?
                };
                Arc::new(
                    seal_ir::lower_checked(&tu)
                        .map_err(|e| format!("target lowers to an invalid module: {e}"))?,
                )
            };
            // Built once the syntax tree is freed, so the facts (held as
            // long as the module) reuse its memory instead of pinning the
            // heap above it.
            let facts = Arc::new(ModuleFacts::new(&module));
            if let Some(key) = key {
                ctx.cache.put_module(key, &module, &facts);
            }
            (module, facts)
        }
    };
    let seal = Seal {
        cache: ctx.cache.clone(),
        ..Seal::default()
    };
    let (reports, _, errors) = seal_core::detect::detect_bugs_isolated_cached(
        &module,
        &facts,
        specs,
        &seal.detect,
        ctx.jobs,
        &ctx.cache,
    );
    for e in &errors {
        failures.push(ItemFailure::of("target", e));
    }
    let mut stdout = String::new();
    if reports.is_empty() {
        stdout.push_str(&format!(
            "no violations found ({} specs checked)\n",
            specs.len()
        ));
    } else {
        stdout.push_str(&format!("{} violation(s):\n\n", reports.len()));
        for r in &reports {
            stdout.push_str(&format!("{r}\n\n"));
        }
    }
    Ok(RunResult {
        stdout,
        notes,
        failures,
        spec_lines: Vec::new(),
    })
}

/// Runs one normalized request to completion. `Err` is the fatal class
/// (exit 1): bad request shape, unreadable shared substrate, uncompilable
/// target. Per-item problems come back inside the `Ok` as failures.
pub fn run_request(ctx: &RunCtx, kind: &RequestKind) -> Result<RunResult, String> {
    match kind {
        RequestKind::Infer { pre, post, id } => {
            let (specs, failures) = infer_specs(ctx, pre, post, id)?;
            let specs = merge_specs(specs);
            let spec_lines: Vec<String> = specs.iter().map(to_line).collect();
            let mut stdout = String::new();
            for l in &spec_lines {
                stdout.push_str(l);
                stdout.push('\n');
            }
            let mut notes = Vec::new();
            if specs.is_empty() && failures.is_empty() {
                notes.push(
                    "note: zero relations inferred (the change touches no interaction data)"
                        .to_string(),
                );
            }
            Ok(RunResult {
                stdout,
                notes,
                failures,
                spec_lines,
            })
        }
        RequestKind::Detect { target, specs } => {
            let specs_text = read_file(specs)?;
            let specs = parse_lines(&specs_text)
                .map_err(|e| format!("malformed spec file --specs: {e}"))?;
            detect_into(ctx, target, &specs, Vec::new(), Vec::new())
        }
        RequestKind::Hunt {
            pre,
            post,
            id,
            target,
        } => {
            let (specs, failures) = infer_specs(ctx, pre, post, id)?;
            let mut notes = vec![format!("inferred {} specification(s)", specs.len())];
            for s in &specs {
                notes.push(format!("  {s}"));
            }
            detect_into(ctx, target, &specs, failures, notes)
        }
    }
}
