//! Hash-consing for formulas and a memoizing solver front end.
//!
//! The detection phase asks the same satisfiability questions over and
//! over: every path from one source shares most of its condition with its
//! siblings, every `cond_consistent` joint check re-conjoins the same
//! specification condition with the same abstracted path condition, and
//! `is_sat` re-runs NNF→DNF from scratch each time. Hash-consing maps each
//! structurally distinct formula to one small [`FormulaId`], and
//! [`SolverCache`] memoizes `is_sat`/`implies` verdicts on those ids, so
//! each distinct question is decided exactly once per cache.
//!
//! Callers that build their conditions from already-interned parts stay on
//! ids throughout: [`SolverCache::and`] and [`SolverCache::conjoin`] give
//! the id of a conjunction without building its tree, and
//! [`SolverCache::is_sat_id`] answers a memo hit without touching a tree.
//! Only a miss rebuilds the formula from its id for the decision procedure.
//!
//! Determinism: the cache only changes *when* a verdict is computed, never
//! what it is — `is_sat`/`implies` are pure functions of the formula, so a
//! hit returns the byte-identical verdict of the miss that populated it.

use crate::formula::{Atom, Formula};
use crate::sat::{self, Verdict};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Identity of a hash-consed formula: equal ids ⇔ structurally equal
/// formulas (within one interner, or one [`SolverCache`] and its base).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormulaId(u32);

impl FormulaId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One hash-consed formula node; children are ids, so structural sharing
/// is exposed and equality is `O(1)` per node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node<T> {
    True,
    False,
    Atom(Atom<T>),
    Not(FormulaId),
    And(Vec<FormulaId>),
    Or(Vec<FormulaId>),
}

impl<T> Node<T> {
    fn children(&self) -> &[FormulaId] {
        match self {
            Node::Not(x) => std::slice::from_ref(x),
            Node::And(xs) | Node::Or(xs) => xs,
            _ => &[],
        }
    }
}

/// Interns `f` bottom-up through `put`, which maps one node (children
/// already interned) to its id.
fn intern_with<T: Clone>(f: &Formula<T>, put: &mut impl FnMut(Node<T>) -> FormulaId) -> FormulaId {
    let node = match f {
        Formula::True => Node::True,
        Formula::False => Node::False,
        Formula::Atom(a) => Node::Atom(a.clone()),
        Formula::Not(x) => Node::Not(intern_with(x, put)),
        Formula::And(xs) => Node::And(xs.iter().map(|x| intern_with(x, put)).collect()),
        Formula::Or(xs) => Node::Or(xs.iter().map(|x| intern_with(x, put)).collect()),
    };
    put(node)
}

/// Hash-consing interner for [`Formula`] trees. Ids are dense and count up
/// from the interner's first id (0, or a base layer's length when the
/// interner is the local layer of a [`SolverCache`]).
#[derive(Debug, Clone)]
pub struct FormulaInterner<T> {
    ids: HashMap<Node<T>, FormulaId>,
    nodes: Vec<Node<T>>,
    first: u32,
}

impl<T> Default for FormulaInterner<T> {
    fn default() -> Self {
        FormulaInterner::starting_at(0)
    }
}

impl<T> FormulaInterner<T> {
    fn starting_at(first: u32) -> Self {
        FormulaInterner {
            ids: HashMap::new(),
            nodes: Vec::new(),
            first,
        }
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// One past the largest id this interner hands out.
    fn end(&self) -> u32 {
        self.first + self.nodes.len() as u32
    }
}

impl<T: Clone + Eq + Hash> FormulaInterner<T> {
    /// Interns a formula bottom-up; structurally equal inputs (and all of
    /// their shared subformulas) map to the same id.
    pub fn intern(&mut self, f: &Formula<T>) -> FormulaId {
        intern_with(f, &mut |n| self.insert(n))
    }

    fn insert(&mut self, node: Node<T>) -> FormulaId {
        let id = FormulaId(self.end());
        match self.ids.entry(node) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.nodes.push(e.key().clone());
                e.insert(id);
                id
            }
        }
    }

    /// Looks a formula up without interning: `Some(id)` iff the formula
    /// (and every subformula) is already present.
    pub fn get(&self, f: &Formula<T>) -> Option<FormulaId> {
        let node = match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Atom(a) => Node::Atom(a.clone()),
            Formula::Not(x) => Node::Not(self.get(x)?),
            Formula::And(xs) => Node::And(xs.iter().map(|x| self.get(x)).collect::<Option<_>>()?),
            Formula::Or(xs) => Node::Or(xs.iter().map(|x| self.get(x)).collect::<Option<_>>()?),
        };
        self.ids.get(&node).copied()
    }
}

/// An immutable, pre-interned formula set, built once before detection
/// fans out and shared read-only across shards. A [`SolverCache`] seeded
/// via [`SolverCache::with_base`] holds the snapshot by [`Arc`] and looks
/// every node up here before its own table, so seeding copies nothing,
/// the hot per-shard `intern` of a specification condition is a pure
/// lookup, and ids for snapshot formulas agree across every shard by
/// construction.
#[derive(Debug)]
pub struct FormulaSnapshot<T> {
    table: FormulaInterner<T>,
}

impl<T: Clone + Eq + Hash> FormulaSnapshot<T> {
    /// Interns `formulas` (in iteration order, which callers keep
    /// deterministic) and freezes the result.
    pub fn build<'a, I>(formulas: I) -> Self
    where
        T: 'a,
        I: IntoIterator<Item = &'a Formula<T>>,
    {
        let mut table = FormulaInterner::default();
        for f in formulas {
            table.intern(f);
        }
        FormulaSnapshot { table }
    }

    /// Id of a snapshot formula (`None` if it was not pre-interned).
    pub fn id_of(&self, f: &Formula<T>) -> Option<FormulaId> {
        self.table.get(f)
    }

    /// Number of distinct nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the snapshot holds no formulas.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// A conjunction being folded the way [`Formula::and`] folds: a finished
/// id, or an `And` node's children not interned yet (so a fold interns
/// only its result, never its intermediate prefixes).
enum Conj {
    Id(FormulaId),
    List(Vec<FormulaId>),
}

/// A memoizing front end over [`sat::is_sat`]/[`sat::implies`], keyed on
/// interned formula ids. `queries`/`hits` make the effect observable so
/// speedups are attributable (the `DetectStats` solver counters).
///
/// The id space is layered: ids below the base length name nodes of the
/// shared [`FormulaSnapshot`] (if any), the rest name this cache's own
/// nodes. A node is always looked up in the base first, so no formula has
/// two ids.
#[derive(Debug)]
pub struct SolverCache<T> {
    base: Option<Arc<FormulaSnapshot<T>>>,
    local: FormulaInterner<T>,
    /// Per local node: whether a query has reached it (see `Drop`).
    reached: Vec<bool>,
    reached_nodes: u64,
    /// Verdict per id, filled on the first `is_sat` of that id.
    sat_memo: Vec<Option<Verdict>>,
    implies_memo: HashMap<(FormulaId, FormulaId), bool>,
    /// Total `is_sat`/`implies` questions asked through this cache.
    pub queries: u64,
    /// Questions answered from the memo without running the solver.
    pub hits: u64,
}

impl<T> Default for SolverCache<T> {
    fn default() -> Self {
        SolverCache {
            base: None,
            local: FormulaInterner::default(),
            reached: Vec::new(),
            reached_nodes: 0,
            sat_memo: Vec::new(),
            implies_memo: HashMap::new(),
            queries: 0,
            hits: 0,
        }
    }
}

impl<T: Clone + Eq + Hash> SolverCache<T> {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache layered over `base`: snapshot formulas keep their snapshot
    /// ids (the same in every seeded cache) and new nodes get ids from the
    /// snapshot's length up. Nothing is copied; verdict memos start empty,
    /// so cached verdicts are still computed — once — by this cache and
    /// are byte-identical to an unseeded run.
    pub fn with_base(base: &Arc<FormulaSnapshot<T>>) -> Self {
        let mut cache = Self::default();
        cache.local = FormulaInterner::starting_at(base.table.end());
        cache.base = Some(Arc::clone(base));
        cache
    }

    fn base_len(&self) -> u32 {
        self.local.first
    }

    /// The node behind an id of this cache.
    fn node(&self, id: FormulaId) -> &Node<T> {
        match &self.base {
            Some(b) if id.0 < self.base_len() => &b.table.nodes[id.index()],
            _ => &self.local.nodes[(id.0 - self.base_len()) as usize],
        }
    }

    fn insert(&mut self, node: Node<T>) -> FormulaId {
        if let Some(&id) = self.base.as_ref().and_then(|b| b.table.ids.get(&node)) {
            return id;
        }
        self.local.insert(node)
    }

    /// Interns a formula (exposed so callers can key their own per-formula
    /// memos — e.g. the abstraction cache in detection — on the same ids,
    /// and build conjunctions of them with [`SolverCache::and`]).
    pub fn intern(&mut self, f: &Formula<T>) -> FormulaId {
        intern_with(f, &mut |n| self.insert(n))
    }

    /// The formula an id names, rebuilt from its nodes.
    pub fn formula(&self, id: FormulaId) -> Formula<T> {
        match self.node(id) {
            Node::True => Formula::True,
            Node::False => Formula::False,
            Node::Atom(a) => Formula::Atom(a.clone()),
            Node::Not(x) => Formula::Not(Box::new(self.formula(*x))),
            Node::And(xs) => Formula::And(xs.iter().map(|&x| self.formula(x)).collect()),
            Node::Or(xs) => Formula::Or(xs.iter().map(|&x| self.formula(x)).collect()),
        }
    }

    /// The id of `formula(a).and(formula(b))` — [`Formula::and`]'s
    /// simplification and flattening, on ids.
    pub fn and(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let acc = self.conj_step(Conj::Id(a), b);
        self.conj_finish(acc)
    }

    /// The id of `ids` folded with [`Formula::and`] from `True` — equal to
    /// interning that fold's tree, but interning only the result.
    pub fn conjoin(&mut self, ids: impl IntoIterator<Item = FormulaId>) -> FormulaId {
        let mut acc: Option<Conj> = None;
        for b in ids {
            acc = Some(match acc {
                // `True.and(b)` is `b`.
                None => Conj::Id(b),
                Some(acc) => self.conj_step(acc, b),
            });
        }
        match acc {
            None => self.insert(Node::True),
            Some(acc) => self.conj_finish(acc),
        }
    }

    /// One `acc.and(b)` step; the arms mirror [`Formula::and`] in order.
    fn conj_step(&mut self, acc: Conj, b: FormulaId) -> Conj {
        let a_list = match acc {
            Conj::Id(a) => match (self.node(a), self.node(b)) {
                (Node::True, _) => return Conj::Id(b),
                (_, Node::True) => return Conj::Id(a),
                (Node::False, _) | (_, Node::False) => {
                    return Conj::Id(self.insert(Node::False));
                }
                (Node::And(xs), _) => xs.clone(),
                (_, Node::And(ys)) => {
                    let mut out = Vec::with_capacity(ys.len() + 1);
                    out.push(a);
                    out.extend_from_slice(ys);
                    return Conj::List(out);
                }
                _ => return Conj::List(vec![a, b]),
            },
            // A pending list is an `And` node: never `True` or `False`.
            Conj::List(xs) => xs,
        };
        let mut xs = a_list;
        match self.node(b) {
            Node::True => {}
            Node::False => return Conj::Id(self.insert(Node::False)),
            Node::And(ys) => xs.extend_from_slice(ys),
            _ => xs.push(b),
        }
        Conj::List(xs)
    }

    fn conj_finish(&mut self, acc: Conj) -> FormulaId {
        match acc {
            Conj::Id(id) => id,
            Conj::List(xs) => self.insert(Node::And(xs)),
        }
    }

    /// Records that a query reached `id`: marks it and every local node
    /// below it (a marked node's subtree is already marked).
    fn reach(&mut self, id: FormulaId) {
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            let Some(i) = id.0.checked_sub(self.base_len()) else {
                continue; // base nodes are the snapshot's, not this cache's
            };
            let i = i as usize;
            if i >= self.reached.len() {
                self.reached.resize(self.local.len(), false);
            }
            if self.reached[i] {
                continue;
            }
            self.reached[i] = true;
            self.reached_nodes += 1;
            stack.extend_from_slice(self.local.nodes[i].children());
        }
    }

    fn count_query(&mut self) {
        self.queries += 1;
        seal_obs::metrics::counter_add("solver.cache.queries", 1);
    }

    fn count_hit(&mut self) {
        self.hits += 1;
        seal_obs::metrics::counter_add("solver.cache.hits", 1);
    }

    /// Memoized [`sat::is_sat`] of an interned formula. A hit touches no
    /// tree; a miss rebuilds the formula once and runs the solver.
    pub fn is_sat_id(&mut self, id: FormulaId) -> Verdict {
        self.reach(id);
        self.count_query();
        if let Some(v) = self.sat_memo.get(id.index()).copied().flatten() {
            self.count_hit();
            return v;
        }
        let v = sat::is_sat(&self.formula(id));
        if id.index() >= self.sat_memo.len() {
            self.sat_memo.resize(id.index() + 1, None);
        }
        self.sat_memo[id.index()] = Some(v);
        v
    }

    /// Memoized [`sat::is_sat`].
    pub fn is_sat(&mut self, f: &Formula<T>) -> Verdict {
        let id = self.intern(f);
        self.is_sat_id(id)
    }

    /// Memoized [`sat::implies`]. Identical formulas short-circuit to
    /// `true` without touching the solver (`a ⇒ a` for every `a`).
    pub fn implies(&mut self, a: &Formula<T>, b: &Formula<T>) -> bool {
        let ia = self.intern(a);
        let ib = self.intern(b);
        self.reach(ia);
        self.reach(ib);
        self.count_query();
        if ia == ib {
            self.count_hit();
            return true;
        }
        if let Some(&r) = self.implies_memo.get(&(ia, ib)) {
            self.count_hit();
            return r;
        }
        let r = sat::implies(a, b);
        self.implies_memo.insert((ia, ib), r);
        r
    }

    /// Memoized [`sat::equivalent`] (mutual implication).
    pub fn equivalent(&mut self, a: &Formula<T>, b: &Formula<T>) -> bool {
        self.implies(a, b) && self.implies(b, a)
    }
}

impl<T> Drop for SolverCache<T> {
    /// Publishes how many of this cache's own nodes its queries reached —
    /// the distinct local subformulas of every formula asked about, which
    /// excludes the seeded snapshot and any node interned only to build a
    /// later query. Summed across caches (one per detection shard) the
    /// total is deterministic: each shard asks a fixed set of questions
    /// regardless of `--jobs`.
    fn drop(&mut self) {
        seal_obs::metrics::counter_add("solver.interner.nodes", self.reached_nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::CmpOp;

    type Fm = Formula<&'static str>;

    #[test]
    fn interning_canonicalizes_structural_equality() {
        let mut it: FormulaInterner<&str> = FormulaInterner::default();
        let a: Fm = Fm::cmp("x", CmpOp::Eq, 0).and(Fm::cmp("y", CmpOp::Gt, 3));
        let b: Fm = Fm::cmp("x", CmpOp::Eq, 0).and(Fm::cmp("y", CmpOp::Gt, 3));
        assert_eq!(it.intern(&a), it.intern(&b));
        let c: Fm = Fm::cmp("x", CmpOp::Eq, 1).and(Fm::cmp("y", CmpOp::Gt, 3));
        assert_ne!(it.intern(&a), it.intern(&c));
        // Shared subformulas are shared nodes: re-interning `a` after `c`
        // creates nothing new.
        let before = it.len();
        it.intern(&a);
        assert_eq!(it.len(), before);
    }

    #[test]
    fn sat_cache_hit_and_miss() {
        let mut cache: SolverCache<&str> = SolverCache::new();
        let f: Fm = Fm::cmp("x", CmpOp::Lt, 0).and(Fm::cmp("x", CmpOp::Gt, 10));
        assert_eq!(cache.is_sat(&f), Verdict::Unsat);
        assert_eq!((cache.queries, cache.hits), (1, 0));
        // Structurally equal clone: a hit, same verdict.
        assert_eq!(cache.is_sat(&f.clone()), Verdict::Unsat);
        assert_eq!((cache.queries, cache.hits), (2, 1));
        // A different formula misses again.
        let g: Fm = Fm::cmp("x", CmpOp::Eq, 5);
        assert_eq!(cache.is_sat(&g), Verdict::Sat);
        assert_eq!((cache.queries, cache.hits), (3, 1));
    }

    #[test]
    fn cached_verdicts_match_uncached() {
        let mut cache: SolverCache<&str> = SolverCache::new();
        let fs: Vec<Fm> = vec![
            Fm::True,
            Fm::False,
            Fm::cmp("x", CmpOp::Eq, 0).and(Fm::cmp("x", CmpOp::Ne, 0)),
            Fm::cmp("x", CmpOp::Lt, 0).or(Fm::cmp("x", CmpOp::Gt, 10)),
        ];
        for f in &fs {
            let direct = sat::is_sat(f);
            assert_eq!(cache.is_sat(f), direct);
            assert_eq!(cache.is_sat(f), direct); // and again, from the memo
        }
    }

    #[test]
    fn snapshot_seeds_caches_with_stable_ids() {
        let c1: Fm = Fm::cmp("x", CmpOp::Eq, 0);
        let c2: Fm = Fm::cmp("y", CmpOp::Gt, 3).and(Fm::cmp("x", CmpOp::Eq, 0));
        let snap = Arc::new(FormulaSnapshot::build([&c1, &c2]));
        assert!(!snap.is_empty());
        assert!(snap.id_of(&c1).is_some());
        assert_eq!(snap.id_of(&Fm::cmp("z", CmpOp::Lt, 9)), None);
        // Two independently seeded caches agree with the snapshot (and
        // each other) on snapshot ids without interning anything new.
        let mut a: SolverCache<&str> = SolverCache::with_base(&snap);
        let mut b: SolverCache<&str> = SolverCache::with_base(&snap);
        for f in [&c1, &c2] {
            assert_eq!(Some(a.intern(f)), snap.id_of(f));
            assert_eq!(a.intern(f), b.intern(f));
        }
        assert!(a.local.is_empty());
        // Fresh formulas extend past the base; verdicts match an unseeded
        // cache byte for byte.
        let g: Fm = Fm::cmp("x", CmpOp::Lt, 0).and(Fm::cmp("x", CmpOp::Gt, 10));
        assert!(a.intern(&g).index() >= snap.len());
        assert_eq!(a.is_sat(&g), SolverCache::<&str>::new().is_sat(&g));
        assert_eq!(a.is_sat(&c1), sat::is_sat(&c1));
    }

    #[test]
    fn id_level_and_mirrors_formula_and() {
        let x: Fm = Fm::cmp("x", CmpOp::Eq, 0);
        let y: Fm = Fm::cmp("y", CmpOp::Gt, 3);
        let z: Fm = Fm::cmp("z", CmpOp::Ne, 1);
        let xy = x.clone().and(y.clone());
        let shapes = [Fm::True, Fm::False, x.clone(), xy, y.clone().or(z.clone())];
        let mut cache: SolverCache<&str> = SolverCache::new();
        for a in &shapes {
            for b in &shapes {
                let (ia, ib) = (cache.intern(a), cache.intern(b));
                let by_ids = cache.and(ia, ib);
                assert_eq!(
                    by_ids,
                    cache.intern(&a.clone().and(b.clone())),
                    "{a} && {b}"
                );
                assert_eq!(cache.formula(by_ids), a.clone().and(b.clone()));
            }
        }
        let parts = [x.clone(), Fm::True, y.clone(), z.clone()];
        let ids: Vec<FormulaId> = parts.iter().map(|f| cache.intern(f)).collect();
        let folded = parts.iter().cloned().fold(Fm::True, Fm::and);
        assert_eq!(cache.conjoin(ids), cache.intern(&folded));
        assert_eq!(cache.conjoin([]), cache.intern(&Fm::True));
    }

    #[test]
    fn interned_only_nodes_are_not_counted_until_queried() {
        let mut cache: SolverCache<&str> = SolverCache::new();
        let x: Fm = Fm::cmp("x", CmpOp::Eq, 0);
        let y: Fm = Fm::cmp("y", CmpOp::Gt, 3);
        let (ix, iy) = (cache.intern(&x), cache.intern(&y));
        assert_eq!(cache.reached_nodes, 0);
        let xy = cache.and(ix, iy);
        assert_eq!(cache.is_sat_id(xy), Verdict::Sat);
        // The And node and both atoms.
        assert_eq!(cache.reached_nodes, 3);
        assert_eq!(cache.is_sat_id(ix), Verdict::Sat);
        assert_eq!(cache.reached_nodes, 3);
    }

    #[test]
    fn implies_via_cache() {
        let mut cache: SolverCache<&str> = SolverCache::new();
        let a: Fm = Fm::cmp("x", CmpOp::Eq, 0);
        let b: Fm = Fm::cmp("x", CmpOp::Le, 0);
        assert!(cache.implies(&a, &b));
        assert!(!cache.implies(&b, &a));
        let q = cache.queries;
        let h = cache.hits;
        // Re-asking both directions hits the memo.
        assert!(cache.implies(&a, &b));
        assert!(!cache.implies(&b, &a));
        assert_eq!(cache.queries, q + 2);
        assert_eq!(cache.hits, h + 2);
        // Identity is a hit without ever running the solver.
        assert!(cache.implies(&a, &a));
        assert_eq!(cache.hits, h + 3);
        // Equivalence through the same memo.
        let c: Fm = Fm::cmp("x", CmpOp::Le, 0).and(Fm::cmp("x", CmpOp::Ge, 0));
        assert!(cache.equivalent(&a, &c));
        assert!(!cache.equivalent(&a, &b));
    }
}
