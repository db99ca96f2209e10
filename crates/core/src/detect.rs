//! Stage ④ — path-sensitive bug detection (§6.4).
//!
//! For every specification, detection regions are the other
//! implementations of the same function pointer (resolved through the
//! module's interface bindings) or, for interface-free specifications, the
//! other usages of the same APIs. Per region, the spec's values and uses
//! are instantiated (`𝔸⁻¹`); if either set is empty the region is skipped
//! (§6.4.1). Realizable value-flow paths are then searched bottom-up over
//! a demand-built PDG (cached per scope, the summary reuse of §6.2.3) and
//! checked against the spec's condition, order, and quantifier.

use crate::cache::{self, AnalysisCache, ShardPayload};
use crate::error::{DetectError, SealError};
use crate::facts::ModuleFacts;
use crate::report::{classify_spec, BugReport};
use crate::roles;
use seal_ir::callgraph::CallGraph;
use seal_ir::ids::FuncId;
use seal_ir::module::{InterfaceId, Module};
use seal_pdg::cond::{CondCtx, CondVar};
use seal_pdg::graph::{NodeId, Pdg};
use seal_pdg::slice::{forward_paths_pruned, SinkReach, SliceConfig, SliceStats, ValueFlowPath};
use seal_runtime::FxHashMap;
use seal_solver::{Formula, FormulaId, FormulaSnapshot, IncrementalTheory, SolverCache, Verdict};
use seal_spec::{Constraint, Quantifier, Relation, SpecUse, SpecValue, Specification};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Budgets and ablation switches for detection.
#[derive(Debug, Clone, Copy)]
pub struct DetectConfig {
    /// Path-search budgets.
    pub slice: SliceConfig,
    /// Cap on regions examined per specification.
    pub max_regions: usize,
    /// Reuse demand-built PDGs across regions with the same scope (the
    /// summary memoization of §6.2.3). Disable to measure its effect.
    pub reuse_pdg_cache: bool,
    /// Evaluate path feasibility and condition consistency with the solver
    /// (§6.4's path sensitivity). Disable for the ablation baseline.
    pub path_sensitive: bool,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            slice: SliceConfig::default(),
            max_regions: 512,
            reuse_pdg_cache: true,
            path_sensitive: true,
        }
    }
}

/// Phase timing and counters for one detection run (§8.4's split between
/// PDG generation and path searching).
#[derive(Debug, Default, Clone, Copy)]
pub struct DetectStats {
    /// Time spent building PDGs.
    pub pdg_time: std::time::Duration,
    /// Time spent searching and examining paths.
    pub search_time: std::time::Duration,
    /// Regions examined.
    pub regions: usize,
    /// Regions skipped by the instantiation check (§6.4.1).
    pub skipped: usize,
    /// Satisfiability queries issued by the search phase (counted whether
    /// or not the memo answers them).
    pub solver_queries: u64,
    /// Queries answered from the interned-formula verdict memo.
    pub solver_cache_hits: u64,
    /// DFS subtrees abandoned on an UNSAT prefix condition.
    pub subtrees_pruned: u64,
    /// Spec sources skipped because their sink cone is empty.
    pub sources_skipped_unreachable: u64,
}

impl std::ops::AddAssign for DetectStats {
    fn add_assign(&mut self, s: DetectStats) {
        self.pdg_time += s.pdg_time;
        self.search_time += s.search_time;
        self.regions += s.regions;
        self.skipped += s.skipped;
        self.solver_queries += s.solver_queries;
        self.solver_cache_hits += s.solver_cache_hits;
        self.subtrees_pruned += s.subtrees_pruned;
        self.sources_skipped_unreachable += s.sources_skipped_unreachable;
    }
}

/// One shard's worth of work: every `(spec, region)` pair whose region has
/// the same scope, tagged with `(spec index, region rank)` for the merge.
struct Shard {
    scope: BTreeSet<FuncId>,
    items: Vec<(usize, usize, FuncId)>,
}

/// [`detect_bugs_isolated_cached`] over fresh [`ModuleFacts`] and without
/// an artifact cache.
pub fn detect_bugs_isolated(
    module: &Module,
    specs: &[Specification],
    cfg: &DetectConfig,
    jobs: usize,
) -> (Vec<BugReport>, DetectStats, Vec<SealError>) {
    detect_bugs_isolated_cached(
        module,
        &ModuleFacts::new(module),
        specs,
        cfg,
        jobs,
        &AnalysisCache::disabled(),
    )
}

/// Checks all specifications against a module on `jobs` workers and
/// reports violations, with phase statistics.
///
/// Fault-isolated: a shard that fails — invalid PDG scope or a contained
/// panic mid-search — costs only its own `(spec, region)` items and comes
/// back as a [`SealError`] instead of unwinding. Reports, their order, and
/// every `DetectStats` counter are independent of `jobs` (phase
/// *durations* are summed across workers and naturally vary).
///
/// Backed by an artifact cache: shards whose key (scope bodies,
/// environment, items, config fingerprint) is in the store replay their
/// recorded reports and counters instead of building a PDG. Reports and
/// all `DetectStats` *counts* are byte-identical to an uncached run; only
/// the phase durations shrink. `facts` are the caller's [`ModuleFacts`]
/// for `module` — the ones a warm module entry carries, so repeated
/// requests against one target share its call graph and every body hash
/// computed so far.
///
/// # Panics
///
/// If `facts` were built for a module with a different function count.
pub fn detect_bugs_isolated_cached(
    module: &Module,
    facts: &ModuleFacts,
    specs: &[Specification],
    cfg: &DetectConfig,
    jobs: usize,
    cache: &AnalysisCache,
) -> (Vec<BugReport>, DetectStats, Vec<SealError>) {
    assert!(facts.fits(module), "module facts built for another module");
    let cg = facts.call_graph();

    let spec_indices = distinct_specs(specs);
    let mut stats = DetectStats::default();
    let shards = plan_shards(module, cg, specs, &spec_indices, cfg, &mut stats);

    // Cache-key ingredients. The position-free environment hash plus
    // per-scope body keys (instead of one whole-module hash) are what keep
    // invalidation proportional to the edit set: a mutated or moved
    // function, or a moved global it names, only moves the keys of shards
    // whose scope contains it. Both come from the module facts, which hash
    // each body the first time a shard key reads it and keep it for every
    // later key, shard and request.
    let cache_on = cache.is_enabled();
    let detect_fp = cache_on.then(|| cache::detect_fingerprint(cfg));
    let env_hash = cache_on.then(|| facts.env_hash(module));
    let spec_hashes: Vec<seal_store::ContentHash> = if cache_on {
        specs
            .iter()
            .map(|s| {
                seal_store::ContentHash::of(&seal_spec::binary::encode_specs(std::slice::from_ref(
                    s,
                )))
            })
            .collect()
    } else {
        Vec::new()
    };

    // Pre-intern every checked spec condition once, in deterministic spec
    // order, into an immutable snapshot each shard's solver cache is
    // layered over. Shards share nothing mutable: the snapshot is
    // read-only, each shard's cache holds it by `Arc` and looks nodes up
    // there before its own table, so seeding a shard copies nothing. With a
    // warm layer attached (`seal serve`), the snapshot is reused across
    // requests keyed on the deduped specs' content — its node table is a
    // pure function of those conditions in that order, so an exact-content
    // re-request skips the rebuild entirely. A warm layer makes the cache
    // enabled, so the spec hashes above are there to key it.
    let build_snapshot = || {
        seal_solver::FormulaSnapshot::build(spec_indices.iter().flat_map(|&si| {
            specs[si]
                .constraints
                .iter()
                .filter_map(|c| match &c.relation {
                    Relation::Reach { cond, .. } => Some(cond),
                    Relation::Order { .. } => None,
                })
        }))
    };
    let spec_cond_snapshot: Arc<seal_solver::FormulaSnapshot<SpecValue>> = if cache.warm().is_some()
    {
        let key = snapshot_key(&spec_hashes, &spec_indices);
        match cache.get_snapshot(&key) {
            Some(s) => s,
            None => {
                let s = Arc::new(build_snapshot());
                cache.put_snapshot(key, &s);
                s
            }
        }
    } else {
        Arc::new(build_snapshot())
    };
    let spec_cond_snapshot = &spec_cond_snapshot;

    let run_shard = |shard: &Shard| -> Result<ShardOut, SealError> {
        // A task root: the shard subtree is identical whether it ran inline
        // (jobs = 1) or on a pool worker, keeping the trace jobs-invariant.
        let _span = seal_obs::task_span!(
            "detect.shard",
            scope = scope_names(module, &shard.scope),
            items = shard.items.len(),
        );
        let key = detect_fp.map(|fp| {
            cache::shard_key(
                fp,
                env_hash.as_ref().unwrap(),
                |fid| facts.body_key(module, fid),
                &spec_hashes,
                &shard.scope,
                &shard.items,
            )
        });
        let replayed = key.as_ref().and_then(|key| {
            let bytes = cache.get_shard(key)?;
            let o = decode_shard(&bytes[..], &shard.items);
            if o.is_none() {
                // Undecodable or mis-shaped payload: degrade to a
                // recompute, exactly like on-disk corruption.
                cache.note_invalidation();
            }
            o
        });
        // Every shard is a hit or a miss, cache or not, so the two sum to
        // `detect.shards`.
        seal_obs::metrics::counter_add("detect.shard_hits", replayed.is_some() as u64);
        seal_obs::metrics::counter_add("detect.shard_misses", replayed.is_none() as u64);
        if let Some(o) = replayed {
            return Ok(o);
        }
        let mut o = ShardOut {
            results: Vec::with_capacity(shard.items.len()),
            pdg_time: std::time::Duration::ZERO,
            search_time: std::time::Duration::ZERO,
            counters: SearchCounters::default(),
        };
        if cfg.reuse_pdg_cache {
            let t0 = std::time::Instant::now();
            let pdg = Pdg::try_build(module, cg, &shard.scope)?;
            o.pdg_time += t0.elapsed();
            let mut paths = PathCache::new(&pdg, cfg, spec_cond_snapshot);
            let _search = seal_obs::span!("detect.search", items = shard.items.len());
            for &(si, ri, region) in &shard.items {
                let t1 = std::time::Instant::now();
                let r = check_region(module, &pdg, &mut paths, &specs[si], region, cfg);
                o.search_time += t1.elapsed();
                o.results.push((si, ri, r));
            }
            o.counters.add(paths.counters);
        } else {
            // Ablation: rebuild the PDG (and path cache) per region, the
            // no-summary-reuse baseline of §8.4.
            for &(si, ri, region) in &shard.items {
                let t0 = std::time::Instant::now();
                let pdg = Pdg::try_build(module, cg, &shard.scope)?;
                o.pdg_time += t0.elapsed();
                let mut paths = PathCache::new(&pdg, cfg, spec_cond_snapshot);
                let t1 = std::time::Instant::now();
                let r = check_region(module, &pdg, &mut paths, &specs[si], region, cfg);
                o.search_time += t1.elapsed();
                o.results.push((si, ri, r));
                o.counters.add(paths.counters);
            }
        }
        if let Some(key) = key {
            cache.put_shard(key, encode_shard(&o));
        }
        Ok(o)
    };
    // Second fence on top of the typed errors: a panic anywhere in the
    // shard (PDG construction invariants, path search, the solver) is
    // contained and attributed to the shard's scope.
    let shard_outs: Vec<Result<ShardOut, SealError>> =
        seal_runtime::par_map_isolated_jobs(jobs, &shards, run_shard)
            .into_iter()
            .zip(&shards)
            .map(|(slot, shard)| match slot {
                Ok(r) => r,
                Err(p) => Err(DetectError::ShardFailed {
                    scope: scope_names(module, &shard.scope),
                    message: p.message,
                }
                .into()),
            })
            .collect();

    // Deterministic merge: restore the sequential (spec, region) order.
    // Counters sum commutatively over shards whose composition is fixed by
    // the `BTreeMap` grouping above, so every `DetectStats` count (like
    // the reports) is independent of `jobs`. A failed shard contributes its
    // error and nothing else — its items are simply absent.
    let mut tagged: Vec<(usize, usize, Option<BugReport>)> = Vec::with_capacity(stats.regions);
    let mut errors: Vec<SealError> = Vec::new();
    for so in shard_outs {
        match so {
            Ok(so) => {
                stats.pdg_time += so.pdg_time;
                stats.search_time += so.search_time;
                stats.solver_queries += so.counters.solver_queries;
                stats.solver_cache_hits += so.counters.solver_cache_hits;
                stats.subtrees_pruned += so.counters.subtrees_pruned;
                stats.sources_skipped_unreachable += so.counters.sources_skipped_unreachable;
                tagged.extend(so.results);
            }
            Err(e) => errors.push(e),
        }
    }
    tagged.sort_by_key(|&(si, ri, _)| (si, ri));
    let mut out = Vec::new();
    for (_, _, report) in tagged {
        match report {
            Some(report) => out.push(report),
            None => stats.skipped += 1,
        }
    }
    dedup_reports(&mut out);
    // Flush the deterministic aggregates into the metrics registry at the
    // merge point: every count below is jobs-invariant by the same argument
    // as `DetectStats` (commutative sums over a fixed shard composition).
    seal_obs::metrics::counter_add("detect.shards", shards.len() as u64);
    seal_obs::metrics::counter_add("detect.regions", stats.regions as u64);
    seal_obs::metrics::counter_add("detect.skipped", stats.skipped as u64);
    seal_obs::metrics::counter_add("detect.reports", out.len() as u64);
    seal_obs::metrics::counter_add("detect.errors", errors.len() as u64);
    seal_obs::metrics::counter_add("detect.solver_queries", stats.solver_queries);
    seal_obs::metrics::counter_add("detect.solver_cache_hits", stats.solver_cache_hits);
    seal_obs::metrics::counter_add("detect.subtrees_pruned", stats.subtrees_pruned);
    seal_obs::metrics::counter_add(
        "detect.sources_skipped_unreachable",
        stats.sources_skipped_unreachable,
    );
    (out, stats, errors)
}

/// Spec-identity memoization: detection sees a spec only through its
/// interface and constraints, so groups that agree on both are checked
/// once, through the group's *earliest* member — exactly the one whose
/// reports would survive `dedup_reports` in a full sequential run. Returns
/// the indices of those members, ascending.
///
/// Public so a caller that detects one spec list against many modules
/// (the streamed scale tier) can reduce the list once: detecting on the
/// kept members alone gives the same reports, in an order-preserving
/// relabeling of spec indices, and the same counters.
pub fn distinct_specs(specs: &[Specification]) -> Vec<usize> {
    let mut seen: HashSet<(&Option<String>, &[Constraint])> = HashSet::new();
    (0..specs.len())
        .filter(|&si| seen.insert((&specs[si].interface, &specs[si].constraints[..])))
        .collect()
}

/// What a spec's detection regions read of it (see
/// [`regions_for_with_cg`]): its interface alone or, without one, its APIs
/// alone. The APIs are sorted because the regions are a union over them.
#[derive(PartialEq, Eq, Hash)]
enum RegionKey<'s> {
    Interface(&'s str),
    Apis(Vec<String>),
}

/// Groups the `(spec, region)` work items of `spec_indices` by region
/// scope, so each shard builds one PDG and keeps the §6.2.3 summary reuse
/// local to a worker. Shards come in scope order and items in `(spec,
/// region rank)` order within a shard. Within the call, each region key's
/// regions and each distinct region's scope are computed once. A scope is
/// the region plus its transitive defined callees: bottom-up summaries
/// stay within direct calls, and indirect calls are not expanded, matching
/// "our slicing does not cross the boundary of function pointers" (§7).
/// Counts the items into `stats.regions`.
fn plan_shards(
    module: &Module,
    cg: &CallGraph,
    specs: &[Specification],
    spec_indices: &[usize],
    cfg: &DetectConfig,
    stats: &mut DetectStats,
) -> Vec<Shard> {
    let mut regions_of: HashMap<RegionKey, Vec<FuncId>> = HashMap::new();
    let mut slot_of_region: FxHashMap<FuncId, usize> = FxHashMap::default();
    let mut slot_of_scope: BTreeMap<BTreeSet<FuncId>, usize> = BTreeMap::new();
    let mut items: Vec<Vec<(usize, usize, FuncId)>> = Vec::new();
    for &si in spec_indices {
        let spec = &specs[si];
        let key = match &spec.interface {
            Some(iface) => RegionKey::Interface(iface),
            None => {
                let mut apis = spec.apis();
                apis.sort_unstable();
                RegionKey::Apis(apis)
            }
        };
        let regions = regions_of
            .entry(key)
            .or_insert_with(|| regions_for_with_cg(module, cg, spec));
        for (ri, &region) in regions.iter().take(cfg.max_regions).enumerate() {
            stats.regions += 1;
            let slot = *slot_of_region.entry(region).or_insert_with(|| {
                *slot_of_scope
                    .entry(cg.reachable_from(&[region]))
                    .or_insert_with(|| {
                        items.push(Vec::new());
                        items.len() - 1
                    })
            });
            items[slot].push((si, ri, region));
        }
    }
    slot_of_scope
        .into_iter()
        .map(|(scope, slot)| Shard {
            scope,
            items: std::mem::take(&mut items[slot]),
        })
        .collect()
}

/// Warm-layer key of the condition snapshot over the deduped specs
/// `spec_indices`, from their content hashes.
fn snapshot_key(
    spec_hashes: &[seal_store::ContentHash],
    spec_indices: &[usize],
) -> seal_store::ContentHash {
    let mut h = seal_store::Hasher128::new();
    h.update_str("detect.snapshot.v1");
    h.update_u64(spec_indices.len() as u64);
    for &si in spec_indices {
        h.update(spec_hashes[si].as_bytes());
    }
    h.finish()
}

/// One shard's results plus its phase timings and counters.
struct ShardOut {
    results: Vec<(usize, usize, Option<BugReport>)>,
    pdg_time: std::time::Duration,
    search_time: std::time::Duration,
    counters: SearchCounters,
}

/// Serializes a computed shard for the artifact cache. Report slots are
/// stored in item order; the `(si, ri)` tags are re-derived from the
/// shard's items on replay (the key already pins their identity), so a
/// renumbered-but-identical spec list replays cleanly.
fn encode_shard(o: &ShardOut) -> Vec<u8> {
    cache::encode_shard_payload(&ShardPayload {
        reports: o.results.iter().map(|(_, _, r)| r.clone()).collect(),
        counters: [
            o.counters.solver_queries,
            o.counters.solver_cache_hits,
            o.counters.subtrees_pruned,
            o.counters.sources_skipped_unreachable,
        ],
    })
}

/// Replays a cached shard against the current item list. `None` on any
/// decode failure or item-count mismatch — the caller recomputes. Phase
/// durations stay zero: a replayed shard truthfully spent no time building
/// PDGs or searching paths.
fn decode_shard(bytes: &[u8], items: &[(usize, usize, FuncId)]) -> Option<ShardOut> {
    let p = cache::decode_shard_payload(bytes).ok()?;
    if p.reports.len() != items.len() {
        return None;
    }
    Some(ShardOut {
        results: items
            .iter()
            .zip(p.reports)
            .map(|(&(si, ri, _), r)| (si, ri, r))
            .collect(),
        pdg_time: std::time::Duration::ZERO,
        search_time: std::time::Duration::ZERO,
        counters: SearchCounters {
            solver_queries: p.counters[0],
            solver_cache_hits: p.counters[1],
            subtrees_pruned: p.counters[2],
            sources_skipped_unreachable: p.counters[3],
        },
    })
}

/// Human-readable scope label for shard-level errors: function names where
/// the id resolves, the raw id where it does not (an invalid scope is
/// exactly the case these errors exist for).
fn scope_names(module: &Module, scope: &BTreeSet<FuncId>) -> String {
    let mut out = String::new();
    for (i, &fid) in scope.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match module.functions.get(fid.index()) {
            Some(body) => out.push_str(&body.name),
            None => out.push_str(&fid.to_string()),
        }
    }
    out
}

/// Detection regions for a specification (§6.4.1): sibling implementations
/// of the interface, or usages of the spec's APIs for interface-free
/// specs. An API "usage" includes every function that reaches the API
/// through its direct-call scope — drivers routinely wrap allocations in
/// local helpers, and the violation may sit in the wrapper's caller.
pub fn regions_for(module: &Module, spec: &Specification) -> Vec<FuncId> {
    let cg = CallGraph::build(module);
    regions_for_with_cg(module, &cg, spec)
}

/// [`regions_for`] with a prebuilt call graph.
pub fn regions_for_with_cg(module: &Module, cg: &CallGraph, spec: &Specification) -> Vec<FuncId> {
    match &spec.interface {
        Some(iface) => {
            let Some((s, f)) = iface.split_once("::") else {
                return vec![];
            };
            module
                .implementations(&InterfaceId::new(s, f))
                .into_iter()
                .map(|b| b.id)
                .collect()
        }
        None => {
            // Direct callers plus their transitive callers.
            let mut out: BTreeSet<FuncId> = BTreeSet::new();
            let mut frontier: Vec<FuncId> = Vec::new();
            for api in spec.apis() {
                for (body, _) in module.callers_of_api(&api) {
                    if out.insert(body.id) {
                        frontier.push(body.id);
                    }
                }
            }
            while let Some(f) = frontier.pop() {
                for caller in cg.callers(f) {
                    if out.insert(caller) {
                        frontier.push(caller);
                    }
                }
            }
            out.into_iter().collect()
        }
    }
}

/// Search-phase counters for one shard (summed into [`DetectStats`]).
#[derive(Debug, Default, Clone, Copy)]
struct SearchCounters {
    solver_queries: u64,
    solver_cache_hits: u64,
    subtrees_pruned: u64,
    sources_skipped_unreachable: u64,
}

impl SearchCounters {
    fn add(&mut self, o: SearchCounters) {
        self.solver_queries += o.solver_queries;
        self.solver_cache_hits += o.solver_cache_hits;
        self.subtrees_pruned += o.subtrees_pruned;
        self.sources_skipped_unreachable += o.sources_skipped_unreachable;
    }
}

/// Per-scope path provider: one condition context plus a memo of the
/// *feasible* forward paths from each source node.
///
/// `forward_paths` depends only on the PDG, the start node, and the slice
/// budgets, and the per-path feasibility test `is_sat(Ψ(p))` is intrinsic
/// to the path — neither varies with the specification — so caching the
/// filtered path set per source is behavior-preserving while eliminating
/// the dominant repeated work when many specs target one region (§8.4's
/// "path searching" phase).
///
/// On top of the path memo sit the search-phase optimizations, each
/// output-identical to the reference it replaces (kept and tested in the
/// crates that own them):
/// * a per-scope [`SinkReach`] cone with separate memos for
///   cone-restricted and full enumerations, via
///   [`forward_paths_pruned`] (reference: `slice::forward_paths`);
/// * one reusable [`IncrementalTheory`] threaded through the DFS that
///   abandons UNSAT prefixes, only with `path_sensitive`;
/// * hash-consed solver caches for path feasibility (the condition
///   context's, on each path's `cond_id`) and spec-condition consistency
///   (layered over the shared spec-condition snapshot, on `cond ∧ Ψ` ids),
///   plus memos of the Ψ abstraction per path condition and of node
///   classification per node (references: `seal_solver::is_sat`,
///   `roles::abstract_cond`).
struct PathCache<'p, 'm> {
    pdg: &'p Pdg<'m>,
    cctx: CondCtx<'p, 'm>,
    memo_full: FxHashMap<NodeId, std::rc::Rc<Vec<ValueFlowPath>>>,
    memo_cone: FxHashMap<NodeId, std::rc::Rc<Vec<ValueFlowPath>>>,
    path_sensitive: bool,
    slice: SliceConfig,
    reach: SinkReach,
    theory: Option<IncrementalTheory<CondVar>>,
    spec_solver: SolverCache<SpecValue>,
    /// Ψ per path condition, keyed on the path's `cond_id`.
    psi_memo: FxHashMap<FormulaId, std::rc::Rc<Psi>>,
    /// `classify_value` per node (`None` until first asked).
    class_memo: Vec<Option<Option<SpecValue>>>,
    consistency_memo: FxHashMap<(PathKey, FormulaId, bool), bool>,
    roles_memo: FxHashMap<PathKey, PathRoles>,
    /// The PDG's in-scope source nodes by match class, built on the first
    /// instantiation query.
    sources: Option<roles::SourceIndex>,
    /// Keyed on spec values, whose names come from the patches: the
    /// collision-resistant default hasher.
    instantiate_memo: HashMap<(FuncId, SpecValue), std::rc::Rc<Vec<NodeId>>>,
    counters: SearchCounters,
}

/// The Ψ abstraction of one path condition: its id in the spec solver and
/// its variables.
struct Psi {
    id: FormulaId,
    vars: Vec<SpecValue>,
}

/// A path's classification into the spec domain — its source value and
/// sink use — both pure functions of the path.
type PathRoles = (Option<SpecValue>, Option<(SpecUse, Option<String>)>);

/// Identity of one enumerated path within a [`PathCache`]: source node,
/// index in that source's enumeration, and whether the enumeration was
/// cone-restricted. Enumeration is deterministic, so the key pins down
/// the path's content without hashing its (large) condition formula —
/// which is what makes the Ψ and consistency memo lookups O(1).
type PathKey = (NodeId, u32, bool);

impl<'p, 'm> PathCache<'p, 'm> {
    fn new(
        pdg: &'p Pdg<'m>,
        cfg: &DetectConfig,
        spec_base: &Arc<FormulaSnapshot<SpecValue>>,
    ) -> Self {
        PathCache {
            pdg,
            cctx: CondCtx::new(pdg),
            memo_full: FxHashMap::default(),
            memo_cone: FxHashMap::default(),
            path_sensitive: cfg.path_sensitive,
            slice: cfg.slice,
            reach: SinkReach::build(pdg),
            theory: cfg.path_sensitive.then(IncrementalTheory::new),
            spec_solver: SolverCache::with_base(spec_base),
            psi_memo: FxHashMap::default(),
            class_memo: vec![None; pdg.len()],
            consistency_memo: FxHashMap::default(),
            roles_memo: FxHashMap::default(),
            sources: None,
            instantiate_memo: HashMap::new(),
            counters: SearchCounters::default(),
        }
    }

    /// Whether `s` has an empty sink cone (no path from it can ever match
    /// a specification use).
    fn source_unreachable(&self, s: NodeId) -> bool {
        !self.reach.reaches_sink(s)
    }

    /// Satisfiability of an interned IR-level path condition, counted and
    /// memoized.
    fn sat_cond(&mut self, id: FormulaId) -> Verdict {
        self.counters.solver_queries += 1;
        let solver = self.cctx.solver();
        let h0 = solver.hits;
        let v = solver.is_sat_id(id);
        self.counters.solver_cache_hits += solver.hits - h0;
        v
    }

    /// Satisfiability of an interned spec-level condition, counted and
    /// memoized.
    fn sat_spec(&mut self, id: FormulaId) -> Verdict {
        self.counters.solver_queries += 1;
        let h0 = self.spec_solver.hits;
        let v = self.spec_solver.is_sat_id(id);
        self.counters.solver_cache_hits += self.spec_solver.hits - h0;
        v
    }

    /// Ψ abstraction of a path condition (§6.4.2), memoized per distinct
    /// condition: `abstract_cond` is pure in the formula, and equal
    /// `cond_id`s are equal conditions. Node classification is memoized
    /// per node underneath.
    fn psi_of(&mut self, p: &ValueFlowPath) -> std::rc::Rc<Psi> {
        if let Some(psi) = self.psi_memo.get(&p.cond_id) {
            return psi.clone();
        }
        let f = roles::abstract_cond_with(&p.cond, &mut classifier(self.pdg, &mut self.class_memo));
        let psi = std::rc::Rc::new(Psi {
            id: self.spec_solver.intern(&f),
            vars: f.vars(),
        });
        self.psi_memo.insert(p.cond_id, psi.clone());
        psi
    }

    /// Condition consistency (§6.4.2), directional by quantifier:
    ///
    /// * `∄` specs forbid the flow *under* `c`; a path counts when its own
    ///   condition does not preclude `c` — joint satisfiability. (A
    ///   guarded sibling whose `Ψ` contradicts `c` is safe; an unguarded
    ///   one is not.)
    /// * `∃`/`∀` specs require the flow to cover situation `c`; besides
    ///   joint satisfiability, the relaxed containment check asks that the
    ///   critical interaction data of `c` occur along `Ψ(p)` at all.
    ///
    /// `cid` is the spec condition's id and `cond_vars` its variables,
    /// both hoisted out of the path loop by the caller.
    fn cond_consistent(
        &mut self,
        key: PathKey,
        p: &ValueFlowPath,
        cond: &Formula<SpecValue>,
        cid: FormulaId,
        cond_vars: &[SpecValue],
        strict: bool,
    ) -> bool {
        if matches!(cond, Formula::True) {
            return true;
        }
        // Deduped specs re-check the same (path, condition) pair across
        // many regions; the verdict is pure in both, so memoize it on the
        // path key plus the interned spec condition.
        let mk = (key, cid, strict);
        if let Some(&v) = self.consistency_memo.get(&mk) {
            self.counters.solver_queries += 1;
            self.counters.solver_cache_hits += 1;
            return v;
        }
        let psi = self.psi_of(p);
        let joint = self.spec_solver.and(cid, psi.id);
        let v = self.sat_spec(joint).possibly_sat()
            && (!strict || psi.vars.is_empty() || cond_vars.iter().any(|v| psi.vars.contains(v)));
        self.consistency_memo.insert(mk, v);
        v
    }

    /// Spec-domain roles of a path (source value + sink use), memoized per
    /// path: classification walks the path and allocates, and every
    /// (specification, region) pair re-asks it.
    fn roles_of(&mut self, key: PathKey, p: &ValueFlowPath) -> PathRoles {
        let pdg = self.pdg;
        let class_memo = &mut self.class_memo;
        self.roles_memo
            .entry(key)
            .or_insert_with(|| {
                let classify = &mut classifier(pdg, class_memo);
                (
                    roles::source_value_with(pdg, p, classify),
                    roles::sink_use(pdg, p),
                )
            })
            .clone()
    }

    /// Source-node instantiation of a spec value in a region (𝔸⁻¹),
    /// memoized: the answer is pure in `(region, value)`, and specs sharing
    /// a value pattern re-ask it for every region in the shard. A miss
    /// looks the value's match class up in the PDG's [`roles::SourceIndex`]
    /// instead of scanning every node (reference:
    /// `roles::instantiate_value`).
    fn instantiate(&mut self, region: FuncId, value: &SpecValue) -> std::rc::Rc<Vec<NodeId>> {
        let pdg = self.pdg;
        let class_memo = &mut self.class_memo;
        let sources = &mut self.sources;
        self.instantiate_memo
            .entry((region, value.clone()))
            .or_insert_with(|| {
                let sources = sources.get_or_insert_with(|| {
                    roles::SourceIndex::build(pdg, &mut classifier(pdg, class_memo))
                });
                std::rc::Rc::new(sources.instantiate(region, value))
            })
            .clone()
    }

    /// Whether a path realizes `value ↪ use_` (see [`roles_match`]).
    fn path_matches(
        &mut self,
        key: PathKey,
        p: &ValueFlowPath,
        value: &SpecValue,
        use_: &SpecUse,
        region_name: &str,
    ) -> bool {
        let roles = self.roles_of(key, p);
        roles_match(&roles, value, use_, region_name)
    }

    /// Feasible forward paths from `s` (all paths when path sensitivity is
    /// off), memoized.
    ///
    /// `cone` restricts enumeration to match-capable paths (classified
    /// sinks and interface-return path ends) via the [`SinkReach`]
    /// pre-pass; callers may request it only when they consume nothing
    /// else. Cone and full results are memoized separately.
    fn paths_from(&mut self, s: NodeId, cone: bool) -> std::rc::Rc<Vec<ValueFlowPath>> {
        let memo = if cone {
            &mut self.memo_cone
        } else {
            &mut self.memo_full
        };
        if let Some(cached) = memo.get(&s) {
            return cached.clone();
        }
        let mut sstats = SliceStats::default();
        let mut paths = forward_paths_pruned(
            self.pdg,
            &mut self.cctx,
            s,
            self.slice,
            Some(&self.reach),
            cone,
            self.theory.as_mut(),
            &mut sstats,
        );
        self.counters.subtrees_pruned += sstats.subtrees_pruned;
        if self.path_sensitive {
            paths.retain(|p| self.sat_cond(p.cond_id).possibly_sat());
        }
        let rc = std::rc::Rc::new(paths);
        let memo = if cone {
            &mut self.memo_cone
        } else {
            &mut self.memo_full
        };
        memo.insert(s, rc.clone());
        rc
    }
}

/// [`roles::classify_value`] through a per-PDG memo.
fn classifier<'a>(
    pdg: &'a Pdg<'_>,
    memo: &'a mut [Option<Option<SpecValue>>],
) -> impl FnMut(NodeId) -> Option<SpecValue> + 'a {
    move |n| {
        memo[n as usize]
            .get_or_insert_with(|| roles::classify_value(pdg, n))
            .clone()
    }
}

/// Evaluates one specification in one region.
fn check_region(
    module: &Module,
    pdg: &Pdg<'_>,
    paths: &mut PathCache<'_, '_>,
    spec: &Specification,
    region: FuncId,
    cfg: &DetectConfig,
) -> Option<BugReport> {
    let constraint = spec.constraints.first()?;
    let body = module.body(region);

    match (&constraint.quantifier, &constraint.relation) {
        (q, Relation::Reach { value, use_, cond }) => {
            let sources = paths.instantiate(region, value);
            if sources.is_empty() {
                return None;
            }
            // Condition variables must also instantiate in this region.
            let cond_vars = cond.vars();
            for v in &cond_vars {
                if paths.instantiate(region, v).is_empty() {
                    return None;
                }
            }
            if !use_instantiable(pdg, region, use_) {
                return None;
            }
            // The consistency-memo key of the spec condition, interned
            // once here rather than per path: the id never changes.
            let cid = paths.spec_solver.intern(cond);
            // Gather matching realizable paths; track whether the spec's
            // condition region is reachable from the sources at all.
            //
            // The applicability probe is the one consumer of paths that
            // never classify a sink (`∃`/`∀` with a non-trivial `c` tests
            // every path's condition); everything else only ever examines
            // match-capable paths, so the sink cone applies and sources
            // with an empty cone can be skipped outright.
            let strict = !matches!(q, Quantifier::NotExists);
            let needs_applicable = strict && !matches!(cond, Formula::True);
            let cone = !needs_applicable;
            let mut matching: Vec<ValueFlowPath> = Vec::new();
            let mut applicable = !needs_applicable;
            'sources: for &s in sources.iter() {
                if cone && paths.source_unreachable(s) {
                    paths.counters.sources_skipped_unreachable += 1;
                    continue;
                }
                let ps = paths.paths_from(s, cone);
                for (i, p) in ps.iter().enumerate() {
                    let key = (s, i as u32, cone);
                    if !applicable
                        && (!cfg.path_sensitive
                            || paths.cond_consistent(key, p, cond, cid, &cond_vars, false))
                    {
                        applicable = true;
                        if !matching.is_empty() {
                            break 'sources;
                        }
                    }
                    if !paths.path_matches(key, p, value, use_, &body.name) {
                        continue;
                    }
                    if !cfg.path_sensitive
                        || paths.cond_consistent(key, p, cond, cid, &cond_vars, strict)
                    {
                        matching.push(p.clone());
                        // `∄` reports the first witness; `∃`/`∀` only ask
                        // whether a matching path exists once applicable.
                        if !strict || applicable {
                            break 'sources;
                        }
                    }
                }
            }
            match q {
                Quantifier::Exists | Quantifier::ForAll => {
                    // A required flow is only demanded where the triggering
                    // situation `c` is reachable (§6.4.1's "cease analysis"
                    // rule, lifted from syntax to conditions).
                    if !applicable {
                        return None;
                    }
                    if matching.is_empty() {
                        return Some(make_report(
                            module,
                            spec,
                            region,
                            vec![],
                            format!(
                                "required flow `{value} ↪ {use_}` is missing in `{}`",
                                body.name
                            ),
                        ));
                    }
                    None
                }
                Quantifier::NotExists => {
                    let witness = matching.first()?;
                    let lines = witness_lines(pdg, witness);
                    Some(make_report(
                        module,
                        spec,
                        region,
                        lines,
                        format!(
                            "forbidden flow `{value} ↪ {use_}` is realizable in `{}`",
                            body.name
                        ),
                    ))
                }
            }
        }
        (
            Quantifier::NotExists,
            Relation::Order {
                value,
                first,
                second,
            },
        ) => {
            let sources = paths.instantiate(region, value);
            if sources.is_empty() {
                return None;
            }
            let mut first_hits: Vec<(NodeId, ValueFlowPath)> = Vec::new();
            let mut second_hits: Vec<(NodeId, ValueFlowPath)> = Vec::new();
            for &s in sources.iter() {
                // Order checks consume classified sinks only: cone mode.
                if paths.source_unreachable(s) {
                    paths.counters.sources_skipped_unreachable += 1;
                    continue;
                }
                let ps = paths.paths_from(s, true);
                for (i, p) in ps.iter().enumerate() {
                    let Some((u, _)) = paths.roles_of((s, i as u32, true), p).1 else {
                        continue;
                    };
                    if use_matches(&u, first) {
                        first_hits.push((p.sink(), p.clone()));
                    }
                    if use_matches(&u, second) {
                        second_hits.push((p.sink(), p.clone()));
                    }
                }
            }
            for (fnode, fpath) in &first_hits {
                for (snode, spath) in &second_hits {
                    if fnode == snode {
                        continue;
                    }
                    let (Some(fo), Some(so)) = (pdg.omega(*fnode), pdg.omega(*snode)) else {
                        continue;
                    };
                    if fo.func != so.func {
                        continue;
                    }
                    if fo < so {
                        // Forbidden order realized.
                        let mut lines = witness_lines(pdg, fpath);
                        lines.extend(witness_lines(pdg, spath));
                        return Some(make_report(
                            module,
                            spec,
                            region,
                            lines,
                            format!(
                                "forbidden order `{first} ≺ {second}` on `{value}` in `{}`",
                                body.name
                            ),
                        ));
                    }
                }
            }
            None
        }
        // ∃/∀ order constraints are not produced by extraction.
        _ => None,
    }
}

/// Whether a use of the spec's kind is instantiable in the region at all.
fn use_instantiable(pdg: &Pdg<'_>, region: FuncId, u: &SpecUse) -> bool {
    use seal_ir::tac::{Callee, Inst, PlaceBase, Terminator};
    let module = pdg.module;
    for &f in &pdg.scope {
        let body = module.body(f);
        for loc in body.all_locs() {
            if loc.is_terminator() {
                if matches!(u, SpecUse::RetI)
                    && f == region
                    && matches!(
                        body.block(loc.block).terminator,
                        Terminator::Return(Some(_))
                    )
                {
                    return true;
                }
                continue;
            }
            let Some(inst) = body.inst_at(loc) else {
                continue;
            };
            let hit = match (u, inst) {
                (
                    SpecUse::ArgF { api, .. },
                    Inst::Call {
                        callee: Callee::Direct(n),
                        ..
                    },
                ) => n == api,
                (SpecUse::Deref, Inst::Load { place, .. })
                | (SpecUse::Deref, Inst::Store { place, .. }) => place.is_indirect(),
                (SpecUse::Div, Inst::Assign { rv, .. }) => matches!(
                    rv,
                    seal_ir::tac::Rvalue::Binary(
                        seal_kir::ast::BinOp::Div | seal_kir::ast::BinOp::Rem,
                        ..
                    )
                ),
                (SpecUse::IndexUse, Inst::Load { place, .. })
                | (SpecUse::IndexUse, Inst::Store { place, .. }) => place
                    .projections
                    .iter()
                    .any(|p| matches!(p, seal_ir::tac::Projection::Index { .. })),
                (SpecUse::GlobalStore { name }, Inst::Store { place, .. }) => {
                    matches!(&place.base, PlaceBase::Global(g) if g == name)
                }
                _ => false,
            };
            if hit {
                return true;
            }
        }
    }
    false
}

/// Whether a concrete path instantiates the abstract `(value, use)` pair.
/// `RetI` sinks only count when the returning function is the region
/// itself (an interface has a single return; §4.2).
fn roles_match(roles: &PathRoles, value: &SpecValue, use_: &SpecUse, region_name: &str) -> bool {
    let Some(v) = &roles.0 else {
        return false;
    };
    if !value_matches(v, value) {
        return false;
    }
    let Some((u, ret_func)) = &roles.1 else {
        return false;
    };
    if matches!(use_, SpecUse::RetI) && ret_func.as_deref() != Some(region_name) {
        return false;
    }
    use_matches(u, use_)
}

fn value_matches(concrete: &SpecValue, spec: &SpecValue) -> bool {
    match (spec, concrete) {
        (
            SpecValue::ArgI { index, fields },
            SpecValue::ArgI {
                index: i2,
                fields: f2,
            },
        ) => index == i2 && (fields.is_empty() || fields == f2),
        (a, b) => a == b,
    }
}

fn use_matches(concrete: &SpecUse, spec: &SpecUse) -> bool {
    concrete == spec
}

fn witness_lines(pdg: &Pdg<'_>, p: &ValueFlowPath) -> Vec<u32> {
    let mut lines: Vec<u32> = p.nodes.iter().map(|&n| pdg.line_of(n)).collect();
    lines.dedup();
    lines.retain(|&l| l != 0);
    lines
}

fn make_report(
    module: &Module,
    spec: &Specification,
    region: FuncId,
    witness_lines: Vec<u32>,
    explanation: String,
) -> BugReport {
    let body = module.body(region);
    BugReport {
        spec: spec.clone(),
        module: module.name.clone(),
        function: body.name.clone(),
        line: body.span.line,
        bug_type: classify_spec(spec),
        witness_lines,
        explanation,
    }
}

fn dedup_reports(reports: &mut Vec<BugReport>) {
    // Identity excludes the origin patch: the same logical violation found
    // through specs mined from different historical patches is one report.
    let keep: Vec<bool> = {
        let mut seen = HashSet::new();
        reports
            .iter()
            .map(|r| {
                seen.insert((
                    &r.module,
                    &r.function,
                    r.bug_type,
                    &r.spec.interface,
                    &r.spec.constraints,
                ))
            })
            .collect()
    };
    let mut keep = keep.into_iter();
    reports.retain(|_| keep.next() == Some(true));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::Patch;
    use crate::warm::WarmMemory;
    use crate::Seal;

    /// Infers from `patch` and detects in `target` with default budgets.
    fn hunt(patch: &Patch, target: &Module) -> Vec<BugReport> {
        let seal = Seal::default();
        seal.detect(target, &seal.infer(patch).unwrap())
    }

    /// End-to-end Fig. 1/Fig. 3 scenario: the spec inferred from the
    /// cx23885 patch finds the same bug in a sibling implementation.
    #[test]
    fn fig3_spec_finds_sibling_npd() {
        let shared = "\
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
";
        let pre = format!(
            "{shared}\
int vbibuffer(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
int buffer_prepare(struct riscmem *risc) {{ vbibuffer(risc); return 0; }}
struct vb2_ops qops = {{ .buf_prepare = buffer_prepare, }};"
        );
        let post = format!(
            "{shared}\
int vbibuffer(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
int buffer_prepare(struct riscmem *risc) {{ return vbibuffer(risc); }}
struct vb2_ops qops = {{ .buf_prepare = buffer_prepare, }};"
        );
        // Target: another driver implementing the same interface with the
        // same dropped-error-code bug, and a correct sibling.
        let target_src = format!(
            "{shared}\
int tw68_alloc(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(128);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
int tw68_buf_prepare(struct riscmem *risc) {{ tw68_alloc(risc); return 0; }}
int good_buf_prepare(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(128);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
struct vb2_ops tw68_qops = {{ .buf_prepare = tw68_buf_prepare, }};
struct vb2_ops good_qops = {{ .buf_prepare = good_buf_prepare, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "target.c").unwrap());
        let reports = hunt(&Patch::new("fig3", pre, post), &target);
        assert!(
            reports.iter().any(|r| r.function == "tw68_buf_prepare"),
            "reports: {:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
        assert!(
            !reports.iter().any(|r| r.function == "good_buf_prepare"),
            "correct sibling must not be flagged"
        );
    }

    /// Fig. 4 scenario: missing bounds check caught in a sibling.
    #[test]
    fn fig4_spec_finds_missing_check() {
        let shared = "\
struct smbus_data { int len; char block[34]; };
struct i2c_algorithm { int (*smbus_xfer)(int size, struct smbus_data *data); };
";
        let body_unchecked = "\
               char sink;
               int i;
               if (size == 1) {
                 for (i = 1; i <= data->len; i++) { sink = data->block[i]; }
               }
               return (int)sink;";
        let body_checked = "\
               char sink;
               int i;
               if (size == 1) {
                 if (data->len <= 32) {
                   for (i = 1; i <= data->len; i++) { sink = data->block[i]; }
                 }
               }
               return (int)sink;";
        let pre = format!(
            "{shared}int xfer_emulated(int size, struct smbus_data *data) {{\n{body_unchecked}\n}}\n\
             struct i2c_algorithm alg = {{ .smbus_xfer = xfer_emulated, }};"
        );
        let post = format!(
            "{shared}int xfer_emulated(int size, struct smbus_data *data) {{\n{body_checked}\n}}\n\
             struct i2c_algorithm alg = {{ .smbus_xfer = xfer_emulated, }};"
        );
        let target_src = format!(
            "{shared}int xgene_xfer(int size, struct smbus_data *data) {{\n{body_unchecked}\n}}\n\
             int safe_xfer(int size, struct smbus_data *data) {{\n{body_checked}\n}}\n\
             struct i2c_algorithm a1 = {{ .smbus_xfer = xgene_xfer, }};\n\
             struct i2c_algorithm a2 = {{ .smbus_xfer = safe_xfer, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "target.c").unwrap());
        let reports = hunt(&Patch::new("fig4", pre, post), &target);
        assert!(
            reports.iter().any(|r| r.function == "xgene_xfer"),
            "reports: {:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
        assert!(!reports.iter().any(|r| r.function == "safe_xfer"));
    }

    /// Fig. 5 scenario: use-after-put order violation in a sibling.
    #[test]
    fn fig5_spec_finds_order_violation() {
        let shared = "\
struct device { int devt; };
struct platform_device { struct device dev; };
struct platform_driver { int (*remove)(struct platform_device *pdev); };
void put_device(struct device *dev);
void release_resources(struct device *dev);
";
        let pre = format!(
            "{shared}int telem_remove(struct platform_device *pdev) {{\n\
               put_device(&pdev->dev);\n\
               release_resources(&pdev->dev);\n\
               return 0;\n\
             }}\nstruct platform_driver telem_driver = {{ .remove = telem_remove, }};"
        );
        let post = format!(
            "{shared}int telem_remove(struct platform_device *pdev) {{\n\
               release_resources(&pdev->dev);\n\
               put_device(&pdev->dev);\n\
               return 0;\n\
             }}\nstruct platform_driver telem_driver = {{ .remove = telem_remove, }};"
        );
        let target_src = format!(
            "{shared}int viacam_remove(struct platform_device *pdev) {{\n\
               put_device(&pdev->dev);\n\
               release_resources(&pdev->dev);\n\
               return 0;\n\
             }}\n\
             int ok_remove(struct platform_device *pdev) {{\n\
               release_resources(&pdev->dev);\n\
               put_device(&pdev->dev);\n\
               return 0;\n\
             }}\n\
             struct platform_driver d1 = {{ .remove = viacam_remove, }};\n\
             struct platform_driver d2 = {{ .remove = ok_remove, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "target.c").unwrap());
        let reports = hunt(&Patch::new("fig5", pre, post), &target);
        assert!(
            reports.iter().any(|r| r.function == "viacam_remove"),
            "reports: {:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
        assert!(!reports.iter().any(|r| r.function == "ok_remove"));
    }

    #[test]
    fn region_skipped_when_value_missing() {
        // Spec requires -12 literal; region never mentions it → no report.
        let shared = "\
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
";
        let pre = format!(
            "{shared}int bp(struct riscmem *r) {{\n\
               r->cpu = (int *)dma_alloc_coherent(64);\n\
               if (r->cpu == NULL) return -12;\n\
               return 0;\n\
             }}\n\
             int outer(struct riscmem *r) {{ bp(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = outer, }};"
        );
        let post = format!(
            "{shared}int bp(struct riscmem *r) {{\n\
               r->cpu = (int *)dma_alloc_coherent(64);\n\
               if (r->cpu == NULL) return -12;\n\
               return 0;\n\
             }}\n\
             int outer(struct riscmem *r) {{ return bp(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = outer, }};"
        );
        let target_src = format!(
            "{shared}int simple_prepare(struct riscmem *r) {{ return 0; }}\n\
             struct vb2_ops q2 = {{ .buf_prepare = simple_prepare, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "t2.c").unwrap());
        let reports = hunt(&Patch::new("p", pre, post), &target);
        assert!(
            reports.is_empty(),
            "{:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
    }

    /// With a warm layer, the condition snapshot is keyed on the specs'
    /// content: detecting the same list twice builds it once, and a list
    /// that differs in one condition gets a snapshot of its own.
    #[test]
    fn warm_snapshot_is_built_once_per_spec_content() {
        let decl = "struct ops { int (*prep)(int *p); };\n";
        let pre = format!(
            "{decl}int do_prep(int *p) {{ return *p; }}\nstruct ops t = {{ .prep = do_prep, }};"
        );
        let post = format!(
            "{decl}int do_prep(int *p) {{ if (p == NULL) return -22; return *p; }}\n\
             struct ops t = {{ .prep = do_prep, }};"
        );
        let target_src = format!(
            "{decl}int other_prep(int *p) {{ return *p; }}\nstruct ops u = {{ .prep = other_prep, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "t.c").unwrap());
        let spec = Seal::default()
            .infer(&Patch::new("p", pre, post))
            .unwrap()
            .into_iter()
            .find(|s| {
                s.constraints
                    .iter()
                    .any(|c| matches!(c.relation, Relation::Reach { .. }))
            })
            .expect("the patch yields a reach spec");
        let mut changed = spec.clone();
        for c in &mut changed.constraints {
            if let Relation::Reach { cond, .. } = &mut c.relation {
                *cond = Formula::Not(Box::new(cond.clone()));
                break;
            }
        }

        let cache = AnalysisCache::disabled().with_warm(WarmMemory::new(1 << 20));
        let facts = ModuleFacts::new(&target);
        let snapshot = |spec: &Specification| {
            let specs = std::slice::from_ref(spec);
            let (_, _, errors) = detect_bugs_isolated_cached(
                &target,
                &facts,
                specs,
                &DetectConfig::default(),
                1,
                &cache,
            );
            assert!(errors.is_empty(), "{errors:?}");
            let hash = seal_store::ContentHash::of(&seal_spec::binary::encode_specs(specs));
            let key = snapshot_key(&[hash], &[0]);
            (key, cache.get_snapshot(&key).expect("the snapshot is warm"))
        };
        let (key, first) = snapshot(&spec);
        let (_, again) = snapshot(&spec);
        assert!(
            Arc::ptr_eq(&first, &again),
            "identical specs rebuilt the snapshot"
        );
        let (other_key, other) = snapshot(&changed);
        assert_ne!(key, other_key);
        assert!(!Arc::ptr_eq(&first, &other));
    }

    // ------------------------------------------------------------ planning

    const SHARED: &str = "\
struct dev { int *buf; int state; };
struct probe_ops { int (*probe)(struct dev *d); };
struct remove_ops { int (*remove)(struct dev *d); };
int *alloc_buf(unsigned long size);
void free_buf(int *p);
";

    /// A generated multi-driver target. Driver `i` has a probe through a
    /// private helper, which drops the helper's error code in every third
    /// driver, and a remove that frees its buffer, before its last use in
    /// every fourth. Every fifth driver adds two mutually recursive probes,
    /// registered in two tables, so two distinct regions share one scope;
    /// and every driver calls the allocator through a shared wrapper, so
    /// interface-free regions include transitive callers.
    fn generated_target(drivers: usize) -> Module {
        let mut src = String::from(SHARED);
        src.push_str("int *get_buf(struct dev *d) { d->buf = alloc_buf(8); return d->buf; }\n");
        for i in 0..drivers {
            let call = if i % 3 == 0 {
                format!("helper_{i}(d); return 0;")
            } else {
                format!("return helper_{i}(d);")
            };
            src.push_str(&format!(
                "static int helper_{i}(struct dev *d) {{ if (get_buf(d) == NULL) return -12; return 0; }}\n\
                 int probe_{i}(struct dev *d) {{ {call} }}\n"
            ));
            let remove = if i % 4 == 0 {
                "free_buf(d->buf); d->state = *d->buf;"
            } else {
                "d->state = *d->buf; free_buf(d->buf);"
            };
            src.push_str(&format!(
                "int remove_{i}(struct dev *d) {{ {remove} return 0; }}\n\
                 struct probe_ops p_{i} = {{ .probe = probe_{i}, }};\n\
                 struct remove_ops r_{i} = {{ .remove = remove_{i}, }};\n"
            ));
            if i % 5 == 0 {
                src.push_str(&format!(
                    "int ping_{i}(struct dev *d) {{ if (d->state > 0) return pong_{i}(d); return helper_{i}(d); }}\n\
                     int pong_{i}(struct dev *d) {{ if (d->state > 1) return ping_{i}(d); return 0; }}\n\
                     struct probe_ops pi_{i} = {{ .probe = ping_{i}, }};\n\
                     struct probe_ops po_{i} = {{ .probe = pong_{i}, }};\n"
                ));
            }
        }
        seal_ir::lower(&seal_kir::compile(&src, "generated.c").unwrap())
    }

    /// Specs inferred from three patches (a dropped error code, a use
    /// after free, a missing NULL check on an interface-free helper) plus
    /// two written out. Each is followed by copies that differ only in
    /// origin patch, only in provenance, or in their constraints (listed
    /// twice), and then the list comes again.
    fn generated_specs() -> Vec<Specification> {
        let seal = Seal::default();
        let patch = |id: &str, pre: &str, post: &str| {
            seal.infer(&Patch::new(
                id,
                format!("{SHARED}{pre}"),
                format!("{SHARED}{post}"),
            ))
            .unwrap()
        };
        let alloc = "static int setup(struct dev *d) { d->buf = alloc_buf(8); if (d->buf == NULL) return -12; return 0; }\n";
        let mut inferred = patch(
            "drop-err",
            &format!("{alloc}int pr(struct dev *d) {{ setup(d); return 0; }}\nstruct probe_ops t = {{ .probe = pr, }};"),
            &format!("{alloc}int pr(struct dev *d) {{ return setup(d); }}\nstruct probe_ops t = {{ .probe = pr, }};"),
        );
        inferred.extend(patch(
            "uaf",
            "int rm(struct dev *d) { free_buf(d->buf); d->state = *d->buf; return 0; }\nstruct remove_ops t = { .remove = rm, };",
            "int rm(struct dev *d) { d->state = *d->buf; free_buf(d->buf); return 0; }\nstruct remove_ops t = { .remove = rm, };",
        ));
        inferred.extend(patch(
            "null",
            "int use_buf(struct dev *d) { int *p = alloc_buf(8); return *p; }",
            "int use_buf(struct dev *d) { int *p = alloc_buf(8); if (p == NULL) return -12; return *p; }",
        ));
        // Interface-free specs over two APIs and over an API the target
        // never calls, so region keys differ beyond their first API.
        inferred.extend(
            [
                "spec[*] <PΨ> { ∄: ret^alloc_buf ↪ arg_1^free_buf under ret^alloc_buf == 0 } (from pair)",
                "spec[*] <PΨ> { ∄: ret^kmalloc ↪ deref under ret^kmalloc == 0 } (from absent)",
            ]
            .map(|line| seal_spec::parse::parse_line(line).unwrap()),
        );
        assert!(
            inferred.iter().any(|s| s.interface.is_none()),
            "no interface-free spec"
        );
        assert!(
            inferred.iter().any(|s| s.interface.is_some()),
            "no interface spec"
        );
        let mut specs = Vec::new();
        for s in &inferred {
            specs.push(s.clone());
            specs.push(Specification {
                origin_patch: format!("{}-again", s.origin_patch),
                ..s.clone()
            });
            specs.push(Specification {
                provenance: match s.provenance {
                    seal_spec::Provenance::AddedPath => seal_spec::Provenance::RemovedPath,
                    _ => seal_spec::Provenance::AddedPath,
                },
                ..s.clone()
            });
            let mut repeated = s.clone();
            repeated.constraints.extend(s.constraints.clone());
            specs.push(repeated);
        }
        specs.extend(inferred);
        specs
    }

    /// The planning construction the per-call memos replaced: regions and
    /// a fresh scope per `(spec, region)` item, grouped in a map keyed on
    /// scopes.
    #[allow(clippy::type_complexity)]
    fn reference_plan(
        module: &Module,
        specs: &[Specification],
        spec_indices: &[usize],
        cfg: &DetectConfig,
    ) -> Vec<(BTreeSet<FuncId>, Vec<(usize, usize, FuncId)>)> {
        let cg = CallGraph::build(module);
        let mut shards: BTreeMap<BTreeSet<FuncId>, Vec<(usize, usize, FuncId)>> = BTreeMap::new();
        for &si in spec_indices {
            let regions = regions_for_with_cg(module, &cg, &specs[si]);
            for (ri, region) in regions.into_iter().take(cfg.max_regions).enumerate() {
                let scope = cg.reachable_from(&[region]);
                shards.entry(scope).or_default().push((si, ri, region));
            }
        }
        shards.into_iter().collect()
    }

    /// The memoized plan has the shard scopes, shard order and item order
    /// of the per-item construction, with and without a region cap.
    #[test]
    fn memoized_plan_matches_per_item_construction() {
        let module = generated_target(24);
        let specs = generated_specs();
        let spec_indices = distinct_specs(&specs);
        let cg = CallGraph::build(&module);
        for max_regions in [512, 3] {
            let cfg = DetectConfig {
                max_regions,
                ..DetectConfig::default()
            };
            let reference = reference_plan(&module, &specs, &spec_indices, &cfg);
            let items: usize = reference.iter().map(|(_, items)| items.len()).sum();
            let mut stats = DetectStats::default();
            let plan: Vec<_> = plan_shards(&module, &cg, &specs, &spec_indices, &cfg, &mut stats)
                .into_iter()
                .map(|s| (s.scope, s.items))
                .collect();
            assert_eq!(plan, reference, "max_regions {max_regions}");
            assert_eq!(stats.regions, items);
        }
        // The target exercises what the grouping must get right: a shard
        // holding two distinct regions, and a spec without an interface.
        let reference = reference_plan(&module, &specs, &spec_indices, &DetectConfig::default());
        assert!(reference.iter().any(|(_, items)| {
            items
                .iter()
                .map(|&(_, _, r)| r)
                .collect::<BTreeSet<_>>()
                .len()
                > 1
        }));
        assert!(spec_indices.iter().any(|&si| specs[si].interface.is_none()));
    }

    /// Structural dedup keeps exactly the indices the `Debug`-string rule
    /// kept, copies that differ only in origin patch or provenance
    /// included.
    #[test]
    fn structural_spec_dedup_matches_debug_strings() {
        let specs = generated_specs();
        let mut seen = std::collections::HashSet::new();
        let by_debug: Vec<usize> = (0..specs.len())
            .filter(|&si| {
                let s = &specs[si];
                seen.insert(format!("{:?}|{:?}", s.interface, s.constraints))
            })
            .collect();
        let kept = distinct_specs(&specs);
        assert_eq!(kept, by_debug);
        // Every inferred spec has one copy with other constraints kept.
        assert!(kept.len() < specs.len());
        assert_eq!(kept.len() % 2, 0);
    }

    /// The memoized Ψ abstraction, path roles and value instantiation
    /// (through the per-node classification memo) equal the `roles`
    /// functions they stand in for.
    #[test]
    fn classification_memos_match_roles_references() {
        let module = generated_target(6);
        let specs = generated_specs();
        let cg = CallGraph::build(&module);
        let scope: BTreeSet<FuncId> = (0..module.functions.len() as u32).map(FuncId).collect();
        let pdg = Pdg::build(&module, &cg, &scope);
        let conds: Vec<&Formula<SpecValue>> = specs
            .iter()
            .flat_map(|s| &s.constraints)
            .filter_map(|c| match &c.relation {
                Relation::Reach { cond, .. } => Some(cond),
                Relation::Order { .. } => None,
            })
            .collect();
        let base = Arc::new(FormulaSnapshot::build(conds));
        let mut cache = PathCache::new(&pdg, &DetectConfig::default(), &base);
        let mut abstracted = 0;
        for n in 0..pdg.len() as NodeId {
            if !seal_pdg::slice::is_source(&pdg, n) {
                continue;
            }
            for (i, p) in cache.paths_from(n, false).iter().enumerate() {
                let psi = cache.psi_of(p);
                let reference = roles::abstract_cond(&pdg, &p.cond);
                assert_eq!(cache.spec_solver.formula(psi.id), reference);
                assert_eq!(psi.vars, reference.vars());
                abstracted += !psi.vars.is_empty() as usize;
                let (value, use_) = cache.roles_of((n, i as u32, false), p);
                assert_eq!(value, roles::source_value(&pdg, p));
                assert_eq!(use_, roles::sink_use(&pdg, p));
            }
        }
        assert!(
            abstracted > 0,
            "no path condition abstracts to interaction data"
        );
        let mut instantiated = 0;
        for spec in &specs {
            let value = spec.constraints[0].relation.value();
            for &region in &scope {
                let got = cache.instantiate(region, value);
                assert_eq!(*got, roles::instantiate_value(&pdg, region, value));
                instantiated += got.len();
            }
        }
        assert!(instantiated > 0, "no spec value instantiates");
    }

    /// The per-PDG source index answers every instantiation query with the
    /// node list of the `roles` reference scan. Seeded queries mix values
    /// the PDG classifies, argument field chains that refine them or not,
    /// literals and names it lacks, in random regions, over the whole
    /// module and over single-region scopes.
    #[test]
    fn source_index_matches_the_instantiation_scan() {
        let mut rng = seal_runtime::rng::Rng::seed_from_u64(0x1DE5);
        let module = generated_target(8);
        let cg = CallGraph::build(&module);
        let n_funcs = module.functions.len() as u32;
        let full: BTreeSet<FuncId> = (0..n_funcs).map(FuncId).collect();
        let fields = ["buf", "state", "len"];
        let names = ["alloc_buf", "get_buf", "free_buf", "kmalloc", "nope"];
        let (mut queries, mut instantiated) = (0, 0);
        for round in 0..24 {
            let scope = if round % 3 == 0 {
                full.clone()
            } else {
                cg.reachable_from(&[FuncId(rng.gen_range(0..n_funcs))])
            };
            let pdg = Pdg::build(&module, &cg, &scope);
            let present: Vec<SpecValue> = (0..pdg.len() as NodeId)
                .filter_map(|n| roles::classify_value(&pdg, n))
                .collect();
            let index = roles::SourceIndex::build(&pdg, &mut |n| roles::classify_value(&pdg, n));
            for _ in 0..40 {
                let value = match rng.gen_range(0..5u32) {
                    0 | 1 if !present.is_empty() => {
                        present[rng.gen_range(0..present.len())].clone()
                    }
                    2 => SpecValue::ArgI {
                        index: rng.gen_range(0..3usize),
                        fields: (0..rng.gen_range(0..3usize))
                            .map(|_| fields[rng.gen_range(0..fields.len())].to_string())
                            .collect(),
                    },
                    3 => SpecValue::Literal(rng.gen_range(-14..2i64)),
                    _ => {
                        let name = names[rng.gen_range(0..names.len())].to_string();
                        if rng.gen_bool(0.5) {
                            SpecValue::RetF { api: name }
                        } else {
                            SpecValue::Global { name }
                        }
                    }
                };
                let region = FuncId(rng.gen_range(0..n_funcs));
                let got = index.instantiate(region, &value);
                assert_eq!(
                    got,
                    roles::instantiate_value(&pdg, region, &value),
                    "round {round}: {value:?} in {region:?}"
                );
                queries += 1;
                instantiated += !got.is_empty() as usize;
            }
        }
        // Both outcomes are exercised, not just the empty answer.
        assert!(
            instantiated > queries / 10 && instantiated < queries,
            "{instantiated} of {queries} queries instantiated"
        );
    }

    /// A second detection over the same facts repeats the first run's
    /// reports and counters, and both equal a run over fresh facts.
    #[test]
    fn second_detection_on_the_same_facts_is_identical() {
        let module = generated_target(12);
        let specs = generated_specs();
        let facts = ModuleFacts::new(&module);
        let cache = AnalysisCache::disabled();
        let run = |facts: &ModuleFacts| {
            let (reports, stats, errors) = detect_bugs_isolated_cached(
                &module,
                facts,
                &specs,
                &DetectConfig::default(),
                2,
                &cache,
            );
            assert!(errors.is_empty(), "{errors:?}");
            let counters = (
                stats.regions,
                stats.skipped,
                stats.solver_queries,
                stats.solver_cache_hits,
                stats.subtrees_pruned,
                stats.sources_skipped_unreachable,
            );
            (reports, counters)
        };
        let first = run(&facts);
        assert!(!first.0.is_empty(), "the generated target reports nothing");
        assert_eq!(run(&facts), first);
        assert_eq!(run(&ModuleFacts::new(&module)), first);
    }
}
