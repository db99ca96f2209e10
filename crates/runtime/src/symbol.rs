//! A global string interner with `Copy` symbols.
//!
//! Structural signatures (see `seal-pdg::slice`) are produced once per PDG
//! node but compared and grouped many times per pipeline run. Interning
//! them turns every later comparison into a pointer check while keeping
//! ordering — and therefore every `BTreeMap` iteration order downstream —
//! identical to ordering the underlying strings.
//!
//! The interner is process-global and append-only: each distinct string is
//! leaked exactly once, so two [`Symbol`]s are equal iff they point at the
//! same allocation. Interning order (and thus any internal id) never leaks
//! into observable behavior; `Ord` compares the resolved strings, which is
//! what keeps output byte-identical across worker counts and runs.
//!
//! # Scaling
//!
//! The table is *sharded*: a string's hash picks one of `SHARDS`
//! independently locked sets, so concurrent interning of distinct strings
//! from pool workers no longer serializes on one global mutex. On top of
//! the shards sits a fixed-size, open-addressed **lock-free fast path**: a
//! published array of atomic entry pointers probed without taking any lock.
//! Re-interning an already-seen symbol — the overwhelmingly common case
//! once signatures stabilize — completes with a handful of atomic loads
//! and string compares. Only a genuine miss falls through to its shard's
//! mutex, and the canonical allocation is then published back into the
//! fast table with a CAS (best effort: a full table degrades to the
//! sharded slow path, never to incorrectness).

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned string. `Copy`, pointer-equal, and ordered by content.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

/// Number of independently locked interner shards (power of two).
const SHARDS: usize = 16;

/// Slots in the lock-free published table (power of two). Sized for the
/// working set of a whole-pipeline run; overflow only costs the fast path.
const FAST_SLOTS: usize = 1 << 14;

/// Probe limit before a lookup gives up on the fast table.
const MAX_PROBES: usize = 8;

/// One published canonical string. `&'static str` is a fat pointer, so it
/// is boxed (and leaked) once to fit an `AtomicPtr` slot.
struct Entry {
    s: &'static str,
}

struct Interner {
    shards: [Mutex<HashSet<&'static str>>; SHARDS],
    fast: Vec<AtomicPtr<Entry>>,
}

static INTERNER: OnceLock<Interner> = OnceLock::new();

fn interner() -> &'static Interner {
    INTERNER.get_or_init(|| {
        let mut fast = Vec::with_capacity(FAST_SLOTS);
        fast.resize_with(FAST_SLOTS, || AtomicPtr::new(std::ptr::null_mut()));
        Interner {
            shards: std::array::from_fn(|_| Mutex::new(HashSet::new())),
            fast,
        }
    })
}

/// FNV-1a; cheap, stable, and independent of the std `RandomState` so the
/// shard/slot of a string never varies across runs.
fn hash_of(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Interner {
    /// Lock-free lookup in the published table.
    fn fast_get(&self, s: &str, h: u64) -> Option<&'static str> {
        let mask = FAST_SLOTS - 1;
        let mut i = (h as usize) & mask;
        for _ in 0..MAX_PROBES {
            let p = self.fast[i].load(Ordering::Acquire);
            if p.is_null() {
                return None; // never published past an empty slot
            }
            // Entries are append-only and leaked: the reference is valid
            // for the process lifetime once observed via Acquire.
            let e = unsafe { &*p };
            if e.s == s {
                return Some(e.s);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Best-effort publish of a canonical string into the fast table.
    fn fast_publish(&self, canon: &'static str, h: u64) {
        let mask = FAST_SLOTS - 1;
        let mut i = (h as usize) & mask;
        let mut entry: *mut Entry = std::ptr::null_mut();
        for _ in 0..MAX_PROBES {
            let p = self.fast[i].load(Ordering::Acquire);
            if p.is_null() {
                if entry.is_null() {
                    entry = Box::into_raw(Box::new(Entry { s: canon }));
                }
                match self.fast[i].compare_exchange(
                    std::ptr::null_mut(),
                    entry,
                    Ordering::Release,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return,
                    Err(raced) => {
                        // Someone else filled the slot; if it was this very
                        // string we are done, else keep probing.
                        if unsafe { &*raced }.s == canon {
                            drop(unsafe { Box::from_raw(entry) });
                            return;
                        }
                    }
                }
            } else if unsafe { &*p }.s == canon {
                break; // already published by a racing thread
            }
            i = (i + 1) & mask;
        }
        if !entry.is_null() {
            drop(unsafe { Box::from_raw(entry) });
        }
    }
}

impl Symbol {
    /// Interns `s`, returning the canonical symbol for its content.
    pub fn intern(s: &str) -> Symbol {
        let it = interner();
        let h = hash_of(s);
        // Lock-free fast path: already-interned symbols take no lock.
        if let Some(canon) = it.fast_get(s, h) {
            return Symbol(canon);
        }
        // Sharded slow path: only writers to the same shard contend.
        let shard = &it.shards[(h as usize >> 14) & (SHARDS - 1)];
        let canon = {
            let mut set = shard.lock().unwrap_or_else(|e| e.into_inner());
            match set.get(s) {
                Some(&canon) => canon,
                None => {
                    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
                    set.insert(leaked);
                    leaked
                }
            }
        };
        it.fast_publish(canon, h);
        Symbol(canon)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // One allocation per distinct string, so pointer identity decides;
        // the content comparison only defends against symbols from a
        // hypothetical second interner.
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl Eq for Symbol {}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Content order, NOT interning order: grouping paths in a
        // `BTreeMap<Symbol, _>` must iterate exactly like the former
        // `BTreeMap<String, _>` regardless of which thread interned first.
        self.0.cmp(other.0)
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Consistent with `Eq`: equal content implies equal pointer.
        (self.0.as_ptr() as usize).hash(state);
        self.0.len().hash(state);
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_canonicalizes() {
        let a = Symbol::intern("f#use(x)");
        let b = Symbol::intern("f#use(x)");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        let c = Symbol::intern("f#use(y)");
        assert_ne!(a, c);
    }

    #[test]
    fn order_is_content_order() {
        // Interned in reverse lexicographic order on purpose.
        let z = Symbol::intern("zzz");
        let a = Symbol::intern("aaa");
        assert!(a < z);
        let mut v = [z, a, Symbol::intern("mmm")];
        v.sort();
        let rendered: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(rendered, ["aaa", "mmm", "zzz"]);
    }

    #[test]
    fn deref_and_display() {
        let s = Symbol::intern("a -> b");
        assert_eq!(s.split(" -> ").count(), 2);
        assert_eq!(format!("{s}"), "a -> b");
    }

    #[test]
    fn hash_agrees_with_eq() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Symbol::intern("k"), 1);
        assert_eq!(m.get(&Symbol::intern("k")), Some(&1));
    }

    #[test]
    fn fast_path_returns_same_canonical_pointer() {
        let a = Symbol::intern("fastpath-candidate");
        // The second call must hit the published table and come back with
        // the identical allocation.
        let b = Symbol::intern("fastpath-candidate");
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn concurrent_interning_is_canonical() {
        // Many threads interning overlapping string sets must agree on one
        // canonical allocation per distinct string.
        let strings: Vec<String> = (0..256).map(|i| format!("sym-{}", i % 64)).collect();
        let ptrs: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let strings = &strings;
                    scope.spawn(move || {
                        strings
                            .iter()
                            .cycle()
                            .skip(t * 31)
                            .take(strings.len())
                            .map(|s| Symbol::intern(s).as_str().as_ptr() as usize)
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        use std::collections::HashMap;
        let mut canon: HashMap<&str, usize> = HashMap::new();
        for (t, row) in ptrs.iter().enumerate() {
            for (i, &p) in row.iter().enumerate() {
                let s = &strings[(t * 31 + i) % strings.len()];
                let prev = canon.entry(s).or_insert(p);
                assert_eq!(*prev, p, "thread {t} saw a second allocation for {s}");
            }
        }
    }
}
