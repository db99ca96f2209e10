//! In-process warm memory above the on-disk store.
//!
//! A long-lived analysis process (`seal serve`) re-sees the same artifacts
//! across requests — lowered target modules, inferred spec lists, whole
//! detection-shard results, the pre-interned spec-condition
//! [`FormulaSnapshot`] — and paying a disk read plus a decode for each
//! repeat visit throws away most of the warm-state win. [`WarmMemory`] is
//! a byte-budgeted LRU holding the *decoded* artifacts behind `Arc`s, so
//! a hit is a map lookup and a pointer bump. A module entry also carries
//! the module's [`ModuleFacts`], so a warm request reuses its call graph
//! and every content hash an earlier request already computed.
//!
//! Keys are the exact `(kind, ContentHash)` pairs the store uses (see
//! [`crate::cache`]), so warm entries inherit the store's correctness
//! story wholesale: a key covers every input the artifact is a function
//! of, and there is no "stale hit" state — only hits and recomputes. The
//! one name-keyed entry, a target's last texts with their module key
//! ([`crate::cache::KIND_TARGET`]), is exact by comparison instead: its
//! key is reused only for byte-equal texts.
//!
//! **Concurrency.** The map is sharded internally: each `(kind, key)` is
//! pinned to one of up to [`MAX_SHARDS`] shards by its content hash, and
//! every shard has its own mutex and its own slice of the byte budget, so
//! concurrent daemon connections contend only when they touch the same
//! shard instead of serializing on one global lock. Recency ticks come
//! from a single atomic counter, so LRU order stays comparable across
//! shards. Budgets below [`MIN_SHARD_BUDGET`] per shard collapse to fewer
//! shards (a sub-8-MiB layer is a single strict LRU exactly as before),
//! which keeps eviction behavior deterministic for the small budgets tests
//! use. [`WarmMemory`] is `Send + Sync` and cheap to clone; all methods
//! take `&self`.
//!
//! Eviction is least-recently-used under a byte budget, per shard. Costs
//! are the encoded payload sizes (what the artifact costs in the store),
//! plus the facts' resident size for a module entry, with the snapshot —
//! never persisted — charged a fixed per-node estimate and a target's
//! texts their byte length; the sum of the
//! shard budgets never exceeds the configured budget, so total resident
//! warm bytes stay strictly bounded. An entry
//! larger than its shard's budget is refused outright rather than
//! evicting everything else.
//!
//! Counters: `serve.warm_hits` / `serve.warm_misses` / `serve.evictions`
//! in the metrics registry, non-deterministic class — concurrent shards
//! may race a put, so arrival order (and thus eviction order) is
//! timing-dependent even though every *served value* is content-addressed
//! and exact.

use crate::cache::TargetFiles;
use crate::facts::ModuleFacts;
use seal_ir::module::Module;
use seal_solver::FormulaSnapshot;
use seal_spec::{SpecValue, Specification};
use seal_store::ContentHash;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default warm budget: 256 MiB.
pub const DEFAULT_WARM_BUDGET: u64 = 256 * 1024 * 1024;

/// Rough decoded size of one interned formula node (map entry, node
/// payload, id). Only used to cost the never-persisted snapshot.
const SNAPSHOT_NODE_COST: u64 = 96;

/// Upper bound on the internal shard count.
pub const MAX_SHARDS: usize = 16;

/// Minimum byte budget one shard is worth splitting off for. Below
/// `2 * MIN_SHARD_BUDGET` the layer is a single shard, i.e. exactly the
/// strict global LRU it was before sharding existed.
pub const MIN_SHARD_BUDGET: u64 = 8 * 1024 * 1024;

/// One warm artifact. Values are `Arc`s: a hit shares, never copies.
#[derive(Clone)]
pub enum WarmValue {
    /// A lowered target module ([`crate::cache::KIND_MODULE`]) with its
    /// derived facts (call graph, memoized env and body hashes).
    Module(Arc<Module>, Arc<ModuleFacts>),
    /// An inferred spec list (both spec kinds, and the shared copy under
    /// [`crate::cache::KIND_SPEC_LIST`]).
    Specs(Arc<Vec<Specification>>),
    /// An encoded shard-result payload ([`crate::cache::KIND_SHARD`]).
    Payload(Arc<Vec<u8>>),
    /// The pre-interned spec-condition snapshot (never on disk).
    Snapshot(Arc<FormulaSnapshot<SpecValue>>),
    /// A target's last-seen files and their module key
    /// ([`crate::cache::KIND_TARGET`], never on disk).
    Target(TargetFiles, ContentHash),
}

struct Entry {
    cost: u64,
    last_used: u64,
    value: WarmValue,
}

/// One mutexed slice of the map, with its own slice of the budget.
struct Shard {
    budget: u64,
    used: u64,
    map: HashMap<(u8, ContentHash), Entry>,
}

/// State shared by every clone of one warm layer: the shards plus the
/// cross-shard recency tick and the lifetime counters (atomics, so the
/// hot path touches at most one shard mutex).
struct Shared {
    budget: u64,
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// Counter snapshot of one warm layer (`seal serve`'s `stats` reply and
/// the `seal stats` hit-rate line are rendered from this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that fell through (to the store or a recompute).
    pub misses: u64,
    /// Entries inserted (replacements included).
    pub insertions: u64,
    /// Entries evicted to stay under the budget.
    pub evictions: u64,
    /// Approximate bytes currently resident.
    pub used_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl WarmStats {
    /// Hit rate over all lookups (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The byte-budgeted sharded LRU of decoded artifacts. Cheap to clone
/// (shared state), `Send + Sync`; all methods take `&self`.
#[derive(Clone)]
pub struct WarmMemory {
    inner: Arc<Shared>,
}

// The whole point of the warm layer is to be shared across daemon
// connection handlers; regressing to a single-threaded type must not
// compile.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WarmMemory>();
};

impl std::fmt::Debug for WarmMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("WarmMemory")
            .field("budget_bytes", &s.budget_bytes)
            .field("used_bytes", &s.used_bytes)
            .field("entries", &s.entries)
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

/// Shard count for one budget: one shard per [`MIN_SHARD_BUDGET`], capped
/// at [`MAX_SHARDS`], floored at 1.
fn shard_count(budget: u64) -> usize {
    ((budget / MIN_SHARD_BUDGET) as usize).clamp(1, MAX_SHARDS)
}

impl WarmMemory {
    /// A warm layer bounded to `budget_bytes` of (approximate) resident
    /// artifact bytes.
    pub fn new(budget_bytes: u64) -> WarmMemory {
        let n = shard_count(budget_bytes);
        // Floor division: the shard budgets sum to at most the configured
        // budget, never over it.
        let per_shard = budget_bytes / n as u64;
        WarmMemory {
            inner: Arc::new(Shared {
                budget: budget_bytes,
                shards: (0..n)
                    .map(|_| {
                        Mutex::new(Shard {
                            budget: per_shard,
                            used: 0,
                            map: HashMap::new(),
                        })
                    })
                    .collect(),
                tick: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                insertions: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// A warm layer with the default 256 MiB budget.
    pub fn with_default_budget() -> WarmMemory {
        WarmMemory::new(DEFAULT_WARM_BUDGET)
    }

    /// The shard one key lives in. The key is already a content hash, so
    /// its first bytes are uniformly distributed; fold the kind in so the
    /// same hash under different kinds can land on different shards.
    fn shard_of(&self, kind: u8, key: &ContentHash) -> &Mutex<Shard> {
        let n = self.inner.shards.len();
        let b = key.as_bytes();
        let h = u64::from_le_bytes(b[..8].try_into().unwrap()) ^ ((kind as u64) << 56);
        &self.inner.shards[(h % n as u64) as usize]
    }

    /// Looks one artifact up, refreshing its recency on a hit.
    pub fn get(&self, kind: u8, key: &ContentHash) -> Option<WarmValue> {
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shard_of(kind, key).lock().unwrap();
        match shard.map.get_mut(&(kind, *key)) {
            Some(e) => {
                e.last_used = tick;
                let v = e.value.clone();
                drop(shard);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                seal_obs::metrics::counter_add_nd("serve.warm_hits", 1);
                Some(v)
            }
            None => {
                drop(shard);
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                seal_obs::metrics::counter_add_nd("serve.warm_misses", 1);
                None
            }
        }
    }

    /// Inserts (or replaces) one artifact at the given byte cost, evicting
    /// least-recently-used entries from its shard until the shard budget
    /// holds. An artifact larger than the entire shard budget is not
    /// admitted.
    pub fn put(&self, kind: u8, key: ContentHash, value: WarmValue, cost: u64) {
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shard_of(kind, &key).lock().unwrap();
        if cost > shard.budget {
            return;
        }
        if let Some(old) = shard.map.insert(
            (kind, key),
            Entry {
                cost,
                last_used: tick,
                value,
            },
        ) {
            shard.used -= old.cost;
        }
        shard.used += cost;
        let mut evicted = 0u64;
        while shard.used > shard.budget {
            // The just-inserted entry carries the freshest tick, so it is
            // never its own victim (cost <= shard budget was checked above).
            let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(e) = shard.map.remove(&victim) {
                shard.used -= e.cost;
                evicted += 1;
            }
        }
        drop(shard);
        self.inner.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.inner.evictions.fetch_add(evicted, Ordering::Relaxed);
            seal_obs::metrics::counter_add_nd("serve.evictions", evicted);
        }
    }

    /// Counter snapshot for this warm layer's lifetime. Under concurrent
    /// traffic the per-shard sums are a consistent-enough view (each shard
    /// is read under its own lock); the atomics are exact.
    pub fn stats(&self) -> WarmStats {
        let mut used = 0u64;
        let mut entries = 0u64;
        for shard in &self.inner.shards {
            let s = shard.lock().unwrap();
            used += s.used;
            entries += s.map.len() as u64;
        }
        WarmStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            insertions: self.inner.insertions.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            used_bytes: used,
            budget_bytes: self.inner.budget,
            entries,
        }
    }
}

/// Cost estimate for a snapshot of `nodes` interned formula nodes.
pub fn snapshot_cost(nodes: usize) -> u64 {
    (nodes as u64) * SNAPSHOT_NODE_COST
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> ContentHash {
        ContentHash([b; 16])
    }

    fn payload(n: usize) -> WarmValue {
        WarmValue::Payload(Arc::new(vec![0u8; n]))
    }

    #[test]
    fn hit_returns_the_inserted_value_and_counts() {
        let w = WarmMemory::new(1000);
        assert!(w.get(3, &key(1)).is_none());
        w.put(3, key(1), payload(10), 10);
        match w.get(3, &key(1)) {
            Some(WarmValue::Payload(p)) => assert_eq!(p.len(), 10),
            _ => panic!("expected a payload hit"),
        }
        let s = w.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!((s.used_bytes, s.entries), (10, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn kinds_namespace_equal_hashes() {
        let w = WarmMemory::new(1000);
        w.put(1, key(1), payload(1), 1);
        assert!(w.get(2, &key(1)).is_none());
        assert!(w.get(1, &key(1)).is_some());
    }

    #[test]
    fn small_budgets_are_one_strict_shard() {
        // Everything below 2 * MIN_SHARD_BUDGET must behave as one global
        // strict LRU — the regime every small-budget test (and SEAL_WARM_
        // BYTES test hook) relies on.
        assert_eq!(shard_count(0), 1);
        assert_eq!(shard_count(1000), 1);
        assert_eq!(shard_count(2 * MIN_SHARD_BUDGET - 1), 1);
        assert_eq!(shard_count(2 * MIN_SHARD_BUDGET), 2);
        assert_eq!(shard_count(DEFAULT_WARM_BUDGET), MAX_SHARDS);
        assert_eq!(WarmMemory::new(1000).inner.shards.len(), 1);
    }

    #[test]
    fn sharded_budgets_never_exceed_the_configured_total() {
        for budget in [1000, MIN_SHARD_BUDGET * 3 + 17, DEFAULT_WARM_BUDGET] {
            let w = WarmMemory::new(budget);
            let total: u64 = w
                .inner
                .shards
                .iter()
                .map(|s| s.lock().unwrap().budget)
                .sum();
            assert!(
                total <= budget,
                "shard budgets {total} exceed the configured {budget}"
            );
        }
    }

    #[test]
    fn eviction_respects_the_byte_budget_in_lru_order() {
        let w = WarmMemory::new(100);
        w.put(3, key(1), payload(40), 40);
        w.put(3, key(2), payload(40), 40);
        // Touch key(1) so key(2) is the LRU victim.
        assert!(w.get(3, &key(1)).is_some());
        w.put(3, key(3), payload(40), 40); // 120 > 100: evict key(2)
        assert!(w.get(3, &key(2)).is_none());
        assert!(w.get(3, &key(1)).is_some());
        assert!(w.get(3, &key(3)).is_some());
        let s = w.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.used_bytes <= s.budget_bytes);
    }

    #[test]
    fn replacement_updates_cost_instead_of_leaking_it() {
        let w = WarmMemory::new(100);
        w.put(3, key(1), payload(60), 60);
        w.put(3, key(1), payload(30), 30);
        let s = w.stats();
        assert_eq!((s.used_bytes, s.entries, s.evictions), (30, 1, 0));
    }

    #[test]
    fn oversized_entry_is_refused_not_thrashed() {
        let w = WarmMemory::new(50);
        w.put(3, key(1), payload(20), 20);
        w.put(3, key(2), payload(200), 200); // larger than the whole budget
        assert!(w.get(3, &key(2)).is_none());
        assert!(w.get(3, &key(1)).is_some(), "resident entries survive");
        assert_eq!(w.stats().evictions, 0);
    }

    /// Hammer one (multi-shard) warm layer from several threads; the byte
    /// budget must hold at every observation, every served value must be
    /// the exact artifact stored under its key, and the lookup counters
    /// must balance.
    #[test]
    fn concurrent_puts_and_gets_stay_under_budget_and_serve_exact_values() {
        let budget = MIN_SHARD_BUDGET * 4; // forces > 1 shard
        let w = WarmMemory::new(budget);
        assert!(w.inner.shards.len() > 1, "test needs a sharded layer");
        let threads = 8;
        let per_thread = 200usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let w = w.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Distinct sizes per key so a cross-key mixup would
                        // change the observed length.
                        let b = ((t * per_thread + i) % 251) as u8;
                        let len = 64 + b as usize;
                        w.put(3, key(b), payload(len), len as u64);
                        if let Some(WarmValue::Payload(p)) = w.get(3, &key(b)) {
                            assert_eq!(p.len(), 64 + b as usize);
                        }
                        let s = w.stats();
                        assert!(
                            s.used_bytes <= s.budget_bytes,
                            "budget exceeded under concurrency: {} > {}",
                            s.used_bytes,
                            s.budget_bytes
                        );
                    }
                });
            }
        });
        let s = w.stats();
        assert_eq!(s.hits + s.misses, (threads * per_thread) as u64);
        assert_eq!(s.insertions, (threads * per_thread) as u64);
    }
}
