//! Content-addressed incremental analysis cache.
//!
//! Every cached artifact is addressed by a 128-bit content hash of *all*
//! the inputs that determine it — source text or semantic renders, the
//! config fingerprint of the stage that produced it, and a domain-version
//! string — so a warm run serves byte-identical results or recomputes;
//! there is no "stale hit" state. Four artifact kinds live in one
//! [`Store`] (see DESIGN.md, "Incremental cache & binary store"):
//!
//! | kind | artifact | keyed on |
//! |------|----------|----------|
//! | [`KIND_SPECS_RAW`] | inferred specs | patch id + raw pre/post text + diff fp |
//! | [`KIND_SPECS_SEM`] | inferred specs | patch id + KIR unit hashes + diff fp |
//! | [`KIND_SHARD`]     | detection shard results | position-free env hash + per scope body: body hash + sites of the globals it names + items + detect fp |
//! | [`KIND_MODULE`]    | lowered module | module name + raw source text |
//!
//! The two spec kinds form a two-level lookup: the raw key is a pure text
//! hash (no parsing needed — the common warm path), the semantic key is
//! checked after the frontend ran and survives whitespace/comment/sibling
//! -reordering edits; a semantic hit is promoted back into a raw entry so
//! the next run short-circuits before compiling.
//!
//! Decoding failures of any payload are *not* errors: they count one
//! invalidation and fall back to recomputation, by the same degradation
//! contract the store applies to on-disk corruption.

use crate::detect::DetectConfig;
use crate::diff::DiffConfig;
use crate::error::SealError;
use crate::facts::{BodyKey, ModuleFacts};
use crate::patch::{CompiledPatch, Patch};
use crate::report::{BugReport, BugType};
use crate::warm::{snapshot_cost, WarmMemory, WarmValue};
use seal_ir::ids::FuncId;
use seal_ir::module::Module;
use seal_solver::FormulaSnapshot;
use seal_spec::{SpecValue, Specification};
use seal_store::{
    fnv64, CacheMode, CodecError, ContentHash, Dec, Enc, Hasher128, Store, StoreStats,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Record kind: specs keyed on raw patch text.
pub const KIND_SPECS_RAW: u8 = 1;
/// Record kind: specs keyed on semantic (KIR-level) unit hashes.
pub const KIND_SPECS_SEM: u8 = 2;
/// Record kind: one detection shard's reports and counters.
pub const KIND_SHARD: u8 = 3;
/// Record kind: a lowered module keyed on its raw source.
pub const KIND_MODULE: u8 = 4;
/// Record kind: the pre-interned spec-condition snapshot. Warm-memory
/// only — never persisted (rebuilding it is cheap; re-reading the interner
/// tables from disk would not be).
pub const KIND_SNAPSHOT: u8 = 5;

/// Stable fingerprint of a stage config: FNV-1a over its `Debug` render.
/// `Debug` covers every field (budgets included), so any config edit —
/// not just the ablation toggles — moves every key derived from it.
fn debug_fp(cfg: &dyn std::fmt::Debug) -> u64 {
    fnv64(format!("{cfg:?}").as_bytes())
}

/// Fingerprint of the differencing config (keys both spec kinds).
pub fn diff_fingerprint(cfg: &DiffConfig) -> u64 {
    debug_fp(cfg)
}

/// Fingerprint of the detection config (keys shard records).
pub fn detect_fingerprint(cfg: &DetectConfig) -> u64 {
    debug_fp(cfg)
}

/// Handle to the per-function artifact cache. Cheap to clone (shared
/// store); the [`Default`] value is a disabled cache, so `Seal::default()`
/// behaves exactly as before the cache existed.
///
/// `AnalysisCache` is `Send + Sync`: the store's maps are mutexed, its
/// flushes are serialized behind a dedicated flush lock, and the warm
/// layer is internally sharded — one handle can be shared by every
/// connection of a concurrent `seal serve` without external locking.
#[derive(Clone)]
pub struct AnalysisCache {
    store: Arc<Store>,
    /// In-process decoded-artifact LRU fronting the store (attached by
    /// `seal serve`; `None` for one-shot CLI runs).
    warm: Option<WarmMemory>,
}

// Concurrent `seal serve` shares one cache across connection handler
// threads; losing `Sync` must be a compile error, not a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnalysisCache>();
};

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache::disabled()
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("store", &*self.store)
            .field("warm", &self.warm)
            .finish()
    }
}

impl AnalysisCache {
    /// A cache that never hits and never writes.
    pub fn disabled() -> AnalysisCache {
        AnalysisCache {
            store: Arc::new(Store::disabled()),
            warm: None,
        }
    }

    /// Opens (or creates) the store under `dir` in the given mode.
    pub fn open(dir: &Path, mode: CacheMode) -> Result<AnalysisCache, SealError> {
        Ok(AnalysisCache {
            store: Arc::new(Store::open(dir, mode)?),
            warm: None,
        })
    }

    /// Attaches an in-process warm layer fronting the store. With one
    /// attached, decoded artifacts are served from memory before any
    /// store read, and the cache is enabled even over a disabled store
    /// (an in-memory-only daemon still reuses work across requests).
    pub fn with_warm(mut self, warm: WarmMemory) -> AnalysisCache {
        self.warm = Some(warm);
        self
    }

    /// The attached warm layer, if any.
    pub fn warm(&self) -> Option<&WarmMemory> {
        self.warm.as_ref()
    }

    /// Whether lookups can ever hit (the store reads, or a warm layer is
    /// attached).
    pub fn is_enabled(&self) -> bool {
        self.store.is_enabled() || self.warm.is_some()
    }

    /// The underlying store (for stats display).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Persists pending writes (no-op unless mode is `rw`).
    pub fn flush(&self) -> Result<(), SealError> {
        self.store.flush()?;
        Ok(())
    }

    /// Session counters plus index sizes.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    // ---- specs ---------------------------------------------------------

    /// Raw-text spec key: nothing semantic, so a hit needs zero parsing.
    fn raw_spec_key(fp: u64, patch: &Patch) -> ContentHash {
        let mut h = Hasher128::new();
        h.update_str("core.specs.raw.v1");
        h.update_u64(fp);
        h.update_str(&patch.id);
        h.update_str(&patch.pre);
        h.update_str(&patch.post);
        h.finish()
    }

    /// Semantic spec key over the compiled patch's KIR unit hashes, or
    /// `None` when the patch was compiled without them
    /// ([`Patch::compile`] instead of [`Patch::compile_hashed`]).
    fn sem_spec_key(fp: u64, compiled: &CompiledPatch) -> Option<ContentHash> {
        let (pre, post) = (compiled.pre_unit_hash?, compiled.post_unit_hash?);
        let mut h = Hasher128::new();
        h.update_str("core.specs.sem.v1");
        h.update_u64(fp);
        h.update_str(&compiled.id);
        h.update(pre.as_bytes());
        h.update(post.as_bytes());
        Some(h.finish())
    }

    /// Warm-layer front for one spec kind: a hit returns the decoded list
    /// without touching the store.
    fn warm_specs(&self, kind: u8, key: &ContentHash) -> Option<Vec<Specification>> {
        match self.warm.as_ref()?.get(kind, key)? {
            WarmValue::Specs(s) => Some(s.as_ref().clone()),
            _ => None,
        }
    }

    /// Shared spec-lookup path: warm layer first, then the store (a store
    /// hit back-fills the warm layer so the next visit skips the decode).
    fn get_specs(&self, kind: u8, key: &ContentHash) -> Option<Vec<Specification>> {
        if let Some(specs) = self.warm_specs(kind, key) {
            return Some(specs);
        }
        let bytes = self.store.get(kind, key)?;
        let specs = self.decode_specs(&bytes)?;
        if let Some(warm) = &self.warm {
            warm.put(
                kind,
                *key,
                WarmValue::Specs(Arc::new(specs.clone())),
                bytes.len() as u64,
            );
        }
        Some(specs)
    }

    fn put_specs(&self, kind: u8, key: ContentHash, specs: &[Specification]) {
        let bytes = seal_spec::binary::encode_specs(specs);
        if let Some(warm) = &self.warm {
            warm.put(
                kind,
                key,
                WarmValue::Specs(Arc::new(specs.to_vec())),
                bytes.len() as u64,
            );
        }
        self.store.put(kind, key, bytes);
    }

    /// Looks up inferred specs by raw patch text.
    pub fn get_specs_raw(&self, fp: u64, patch: &Patch) -> Option<Vec<Specification>> {
        self.get_specs(KIND_SPECS_RAW, &Self::raw_spec_key(fp, patch))
    }

    /// Stores inferred specs under the raw-text key.
    pub fn put_specs_raw(&self, fp: u64, patch: &Patch, specs: &[Specification]) {
        self.put_specs(KIND_SPECS_RAW, Self::raw_spec_key(fp, patch), specs);
    }

    /// Looks up inferred specs by semantic unit hashes. Always a miss for
    /// a patch compiled without hashes.
    pub fn get_specs_sem(&self, fp: u64, compiled: &CompiledPatch) -> Option<Vec<Specification>> {
        let key = Self::sem_spec_key(fp, compiled)?;
        self.get_specs(KIND_SPECS_SEM, &key)
    }

    /// Stores inferred specs under the semantic key (a no-op for a patch
    /// compiled without hashes).
    pub fn put_specs_sem(&self, fp: u64, compiled: &CompiledPatch, specs: &[Specification]) {
        if let Some(key) = Self::sem_spec_key(fp, compiled) {
            self.put_specs(KIND_SPECS_SEM, key, specs);
        }
    }

    fn decode_specs(&self, bytes: &[u8]) -> Option<Vec<Specification>> {
        match seal_spec::binary::decode_specs(bytes) {
            Ok(specs) => Some(specs),
            Err(_) => {
                self.store.note_invalidation();
                None
            }
        }
    }

    // ---- lowered modules ----------------------------------------------

    fn module_key(name: &str, source: &str) -> ContentHash {
        let mut h = Hasher128::new();
        h.update_str("core.module.v1");
        h.update_str(name);
        h.update_str(source);
        h.finish()
    }

    /// Looks up a lowered module by `(name, raw source)`, with its derived
    /// [`ModuleFacts`]. A warm hit shares both `Arc`s, so the call graph
    /// and every body hash already computed for this module are reused; a
    /// store hit decodes the module and builds fresh facts.
    pub fn get_module(&self, name: &str, source: &str) -> Option<(Arc<Module>, Arc<ModuleFacts>)> {
        let key = Self::module_key(name, source);
        if let Some(WarmValue::Module(m, facts)) =
            self.warm.as_ref().and_then(|w| w.get(KIND_MODULE, &key))
        {
            return Some((m, facts));
        }
        let bytes = self.store.get(KIND_MODULE, &key)?;
        match seal_ir::codec::decode_module(&bytes) {
            Ok(m) => {
                let m = Arc::new(m);
                let facts = Arc::new(ModuleFacts::new(&m));
                self.put_warm_module(key, &m, &facts, bytes.len() as u64);
                Some((m, facts))
            }
            Err(_) => {
                self.store.note_invalidation();
                None
            }
        }
    }

    /// Stores a lowered module under its `(name, raw source)` key; the
    /// warm layer also keeps its facts.
    pub fn put_module(
        &self,
        name: &str,
        source: &str,
        module: &Arc<Module>,
        facts: &Arc<ModuleFacts>,
    ) {
        let key = Self::module_key(name, source);
        let bytes = seal_ir::codec::encode_module(module);
        self.put_warm_module(key, module, facts, bytes.len() as u64);
        self.store.put(KIND_MODULE, key, bytes);
    }

    /// Warm module entry, charged the module's encoded size plus the
    /// facts' resident size.
    fn put_warm_module(
        &self,
        key: ContentHash,
        module: &Arc<Module>,
        facts: &Arc<ModuleFacts>,
        encoded: u64,
    ) {
        if let Some(warm) = &self.warm {
            warm.put(
                KIND_MODULE,
                key,
                WarmValue::Module(module.clone(), facts.clone()),
                encoded + facts.approx_bytes(),
            );
        }
    }

    // ---- detection shards ---------------------------------------------

    /// Raw shard-record access (the key is built by [`shard_key`]).
    pub(crate) fn get_shard(&self, key: &ContentHash) -> Option<Arc<Vec<u8>>> {
        if let Some(WarmValue::Payload(p)) = self.warm.as_ref().and_then(|w| w.get(KIND_SHARD, key))
        {
            return Some(p);
        }
        let bytes = Arc::new(self.store.get(KIND_SHARD, key)?);
        if let Some(warm) = &self.warm {
            warm.put(
                KIND_SHARD,
                *key,
                WarmValue::Payload(bytes.clone()),
                bytes.len() as u64,
            );
        }
        Some(bytes)
    }

    pub(crate) fn put_shard(&self, key: ContentHash, payload: Vec<u8>) {
        if let Some(warm) = &self.warm {
            let cost = payload.len() as u64;
            warm.put(
                KIND_SHARD,
                key,
                WarmValue::Payload(Arc::new(payload.clone())),
                cost,
            );
        }
        self.store.put(KIND_SHARD, key, payload);
    }

    pub(crate) fn note_invalidation(&self) {
        self.store.note_invalidation();
    }

    // ---- spec-condition snapshot (warm-only) --------------------------

    /// Looks up the pre-interned spec-condition snapshot (never on disk:
    /// a miss just rebuilds it).
    pub(crate) fn get_snapshot(
        &self,
        key: &ContentHash,
    ) -> Option<Arc<FormulaSnapshot<SpecValue>>> {
        match self.warm.as_ref()?.get(KIND_SNAPSHOT, key)? {
            WarmValue::Snapshot(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn put_snapshot(&self, key: ContentHash, snap: &Arc<FormulaSnapshot<SpecValue>>) {
        if let Some(warm) = &self.warm {
            let cost = snapshot_cost(snap.len());
            warm.put(KIND_SNAPSHOT, key, WarmValue::Snapshot(snap.clone()), cost);
        }
    }
}

/// Key of one detection shard's results.
///
/// Covers exactly the inputs the shard's output is a function of: the
/// detection config fingerprint, the position-free module environment,
/// each scope function's [`BodyKey`] (its positional body hash — reports
/// carry line numbers — and the definition sites of the globals it names,
/// the only global sites a report can cite), and the identity of each
/// `(spec, region)` item. Bodies *outside* the scope
/// and the sites of globals no scope body names are deliberately absent,
/// which is what makes warm-run misses proportional to the edit set:
/// mutating one function, or moving it or a global it names, only
/// invalidates the shards whose scope contains it — and, since `body_key`
/// is asked only for scope members, what keeps a key's cost proportional
/// to its scope: detection passes [`ModuleFacts::body_key`], which hashes
/// each body on first request.
pub(crate) fn shard_key(
    fp: u64,
    env_hash: &ContentHash,
    body_key: impl Fn(FuncId) -> Option<BodyKey>,
    spec_hashes: &[ContentHash],
    scope: &BTreeSet<FuncId>,
    items: &[(usize, usize, FuncId)],
) -> ContentHash {
    let mut h = Hasher128::new();
    h.update_str("core.shard.v3");
    h.update_u64(fp);
    h.update(env_hash.as_bytes());
    h.update_u64(scope.len() as u64);
    for &fid in scope {
        h.update_u32(fid.0);
        match body_key(fid) {
            Some(bk) => {
                h.update(bk.body.as_bytes());
                h.update(bk.globals.as_bytes());
            }
            None => h.update_str("<missing>"),
        }
    }
    h.update_u64(items.len() as u64);
    for &(si, ri, region) in items {
        // The spec's *content* (not its index) keys the item, so renumbered
        // but identical spec lists still hit; `ri` and the region id pin
        // the item's place in the deterministic merge order.
        match spec_hashes.get(si) {
            Some(sh) => h.update(sh.as_bytes()),
            None => h.update_str("<missing>"),
        }
        h.update_u64(ri as u64);
        h.update_u32(region.0);
    }
    h.finish()
}

/// One shard's cacheable output: per-item report slots (in the shard's
/// item order) plus the search counters. Phase *durations* are not cached
/// — a warm hit truthfully spent ~0 time building PDGs.
pub(crate) struct ShardPayload {
    pub reports: Vec<Option<BugReport>>,
    /// `[solver_queries, solver_cache_hits, subtrees_pruned,
    /// sources_skipped_unreachable]`.
    pub counters: [u64; 4],
}

pub(crate) fn encode_shard_payload(p: &ShardPayload) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(p.reports.len() as u32);
    for slot in &p.reports {
        match slot {
            Some(r) => {
                e.bool(true);
                enc_report(&mut e, r);
            }
            None => e.bool(false),
        }
    }
    for c in p.counters {
        e.u64(c);
    }
    e.into_bytes()
}

pub(crate) fn decode_shard_payload(bytes: &[u8]) -> Result<ShardPayload, CodecError> {
    let mut d = Dec::new(bytes);
    let n = d.u32()?;
    let mut reports = Vec::with_capacity(n.min(65536) as usize);
    for _ in 0..n {
        reports.push(if d.bool()? {
            Some(dec_report(&mut d)?)
        } else {
            None
        });
    }
    let mut counters = [0u64; 4];
    for c in &mut counters {
        *c = d.u64()?;
    }
    d.finish()?;
    Ok(ShardPayload { reports, counters })
}

const BUG_TYPES: [BugType; 8] = [
    BugType::Npd,
    BugType::MemLeak,
    BugType::WrongEc,
    BugType::Oob,
    BugType::Uaf,
    BugType::Dbz,
    BugType::Uninit,
    BugType::Other,
];

fn enc_report(e: &mut Enc, r: &BugReport) {
    seal_spec::binary::encode_spec_into(e, &r.spec);
    e.str(&r.module);
    e.str(&r.function);
    e.u32(r.line);
    e.u8(BUG_TYPES.iter().position(|b| *b == r.bug_type).unwrap() as u8);
    e.u32(r.witness_lines.len() as u32);
    for &l in &r.witness_lines {
        e.u32(l);
    }
    e.str(&r.explanation);
}

fn dec_report(d: &mut Dec) -> Result<BugReport, CodecError> {
    let spec = seal_spec::binary::decode_spec_from(d)?;
    let module = d.str()?.to_string();
    let function = d.str()?.to_string();
    let line = d.u32()?;
    let tag = d.u8()?;
    let bug_type = *BUG_TYPES.get(tag as usize).ok_or(CodecError::BadTag {
        what: "BugType",
        tag,
    })?;
    let n = d.u32()?;
    let mut witness_lines = Vec::with_capacity(n.min(65536) as usize);
    for _ in 0..n {
        witness_lines.push(d.u32()?);
    }
    let explanation = d.str()?.to_string();
    Ok(BugReport {
        spec,
        module,
        function,
        line,
        bug_type,
        witness_lines,
        explanation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_spec::{Provenance, Specification};

    fn spec(id: &str) -> Specification {
        Specification {
            interface: Some("ops::prep".into()),
            constraints: vec![],
            origin_patch: id.into(),
            provenance: Provenance::AddedPath,
        }
    }

    fn report(line: u32) -> BugReport {
        BugReport {
            spec: spec("p1"),
            module: "m.c".into(),
            function: "f".into(),
            line,
            bug_type: BugType::Npd,
            witness_lines: vec![3, 5, 8],
            explanation: "deref of unchecked pointer".into(),
        }
    }

    #[test]
    fn shard_payload_round_trips_and_rejects_corruption() {
        let p = ShardPayload {
            reports: vec![Some(report(7)), None, Some(report(12))],
            counters: [10, 4, 2, 1],
        };
        let bytes = encode_shard_payload(&p);
        let back = decode_shard_payload(&bytes).unwrap();
        assert_eq!(back.reports.len(), 3);
        assert_eq!(back.reports[0], Some(report(7)));
        assert_eq!(back.reports[1], None);
        assert_eq!(back.counters, [10, 4, 2, 1]);
        // Canonical: re-encoding the decode gives the same bytes.
        assert_eq!(encode_shard_payload(&back), bytes);
        for cut in 0..bytes.len() {
            assert!(decode_shard_payload(&bytes[..cut]).is_err());
        }
        for pos in 0..bytes.len() {
            let mut m = bytes.clone();
            m[pos] ^= 0x41;
            let _ = decode_shard_payload(&m); // must not panic
        }
    }

    #[test]
    fn config_fingerprints_move_with_any_field() {
        let base = DetectConfig::default();
        let mut other = base;
        other.max_regions += 1;
        assert_ne!(detect_fingerprint(&base), detect_fingerprint(&other));
        let mut d = DiffConfig::default();
        let fp0 = diff_fingerprint(&d);
        d.slice.max_paths += 1;
        assert_ne!(fp0, diff_fingerprint(&d));
    }

    /// Body keys read from an eagerly computed per-function vector.
    fn eager(bodies: &[BodyKey]) -> impl Fn(FuncId) -> Option<BodyKey> + '_ {
        |fid| bodies.get(fid.index()).copied()
    }

    /// A body key of two made-up hashes.
    fn bk(body: &[u8], globals: &[u8]) -> BodyKey {
        BodyKey {
            body: ContentHash::of(body),
            globals: ContentHash::of(globals),
        }
    }

    #[test]
    fn shard_key_ignores_spec_renumbering_but_sees_content() {
        let fp = 7u64;
        let env = ContentHash::of(b"env");
        let bodies = vec![bk(b"f0", b"g0"), bk(b"f1", b"g1")];
        let scope: BTreeSet<FuncId> = [FuncId(0), FuncId(1)].into_iter().collect();
        let s_a = ContentHash::of(b"specA");
        let s_b = ContentHash::of(b"specB");
        // Same spec content at a different index: identical key.
        let k1 = shard_key(
            fp,
            &env,
            eager(&bodies),
            &[s_a, s_b],
            &scope,
            &[(0, 0, FuncId(0))],
        );
        let k2 = shard_key(
            fp,
            &env,
            eager(&bodies),
            &[s_b, s_a],
            &scope,
            &[(1, 0, FuncId(0))],
        );
        assert_eq!(k1, k2);
        // Different spec content at the same index: different key.
        let k3 = shard_key(
            fp,
            &env,
            eager(&bodies),
            &[s_b, s_a],
            &scope,
            &[(0, 0, FuncId(0))],
        );
        assert_ne!(k1, k3);
        // Body edit inside the scope: different key.
        let edited = vec![bk(b"f0'", b"g0"), bk(b"f1", b"g1")];
        let k4 = shard_key(
            fp,
            &env,
            eager(&edited),
            &[s_a, s_b],
            &scope,
            &[(0, 0, FuncId(0))],
        );
        assert_ne!(k1, k4);
        // A named global moved, body bytes unchanged: different key.
        let moved = vec![bk(b"f0", b"g0'"), bk(b"f1", b"g1")];
        let k5 = shard_key(
            fp,
            &env,
            eager(&moved),
            &[s_a, s_b],
            &scope,
            &[(0, 0, FuncId(0))],
        );
        assert_ne!(k1, k5);
    }

    /// Shard keys read body keys through [`ModuleFacts`], lazily and only
    /// for scope members; their bytes must be those of the eager
    /// per-function vector of [`BodyKey::of`]. The key literal pins the
    /// derivation: new bytes make every existing store miss once, so they
    /// must come with a bumped domain tag (`ir.env.*`, `ir.globals.*`,
    /// `core.shard.*`), never by accident — a record of an older
    /// derivation is then never replayed.
    #[test]
    fn shard_keys_through_module_facts_keep_their_bytes() {
        let m = crate::facts::tests::module();
        let facts = ModuleFacts::new(&m);
        let bodies: Vec<BodyKey> = m.functions.iter().map(|f| BodyKey::of(&m, f)).collect();
        for f in &m.functions {
            assert_eq!(facts.body_key(&m, f.id), Some(bodies[f.id.index()]));
        }
        let env = seal_ir::codec::env_hash(&m);
        assert_eq!(facts.env_hash(&m), env);
        let specs = [ContentHash::of(b"specA")];
        let scope: BTreeSet<FuncId> = m.functions.iter().map(|f| f.id).collect();
        let items: Vec<(usize, usize, FuncId)> = m
            .functions
            .iter()
            .enumerate()
            .map(|(ri, f)| (0, ri, f.id))
            .collect();
        let through_facts = shard_key(
            7,
            &facts.env_hash(&m),
            |fid| facts.body_key(&m, fid),
            &specs,
            &scope,
            &items,
        );
        let from_vector = shard_key(7, &env, eager(&bodies), &specs, &scope, &items);
        assert_eq!(through_facts, from_vector);
        assert_eq!(
            through_facts.to_string(),
            "c55bf61dcbff21eac46b6f3f14c0809d"
        );
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = AnalysisCache::disabled();
        assert!(!c.is_enabled());
        let p = Patch::new(
            "p",
            "int f(void) { return 1; }",
            "int f(void) { return 2; }",
        );
        assert!(c.get_specs_raw(0, &p).is_none());
        c.put_specs_raw(0, &p, &[spec("p")]);
        assert!(c.get_specs_raw(0, &p).is_none());
        assert!(c.flush().is_ok());
    }
}
