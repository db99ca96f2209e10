//! Pooled, wholesale-freed storage for PDG adjacency.
//!
//! One `Vec<NodeId>` per node per direction would mean thousands of small
//! allocations per demand-built PDG, made and torn down once per detection
//! shard; under parallel detection every worker would hammer the global
//! allocator with them at the same time.
//!
//! This module uses an *arena* discipline instead: during construction
//! every edge is appended to one growing log ([`EdgeArena`]), and at
//! finalize the log is scattered into two compressed sparse rows ([`Csr`],
//! successors and predecessors) — three large allocations total, all freed
//! wholesale when the PDG (and with it the shard) retires.
//!
//! Determinism: the scatter is stable, so each node's successor (and
//! predecessor) slice comes out in exactly the order the edges were
//! inserted. Duplicate edges are dropped on insertion (first occurrence
//! wins). Both rules are pinned by this module's tests.

use crate::graph::NodeId;
use seal_runtime::FxHashSet;

/// Append-only edge log with first-occurrence deduplication. One per PDG
/// build; finalized into CSR form once construction completes.
#[derive(Debug, Default)]
pub struct EdgeArena {
    pairs: Vec<(NodeId, NodeId)>,
    /// Edges seen so far. Node ids are not input text, so the seed-free
    /// hasher is safe here, and only membership is queried.
    seen: FxHashSet<(NodeId, NodeId)>,
}

impl EdgeArena {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log with room for `edges` edges.
    pub fn with_capacity(edges: usize) -> Self {
        EdgeArena {
            pairs: Vec::with_capacity(edges),
            seen: FxHashSet::with_capacity_and_hasher(edges, Default::default()),
        }
    }

    /// Appends a directed edge unless it was already recorded. Returns
    /// whether the edge was new.
    pub fn push(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.seen.insert((from, to)) {
            self.pairs.push((from, to));
            true
        } else {
            false
        }
    }

    /// Number of distinct edges recorded.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Scatters the log into successor and predecessor CSR tables over
    /// `nodes` rows. Row order equals insertion order.
    pub fn finalize(self, nodes: usize) -> (Csr, Csr) {
        let succ = Csr::scatter(nodes, self.pairs.iter().map(|&(f, t)| (f, t)));
        let pred = Csr::scatter(nodes, self.pairs.iter().map(|&(f, t)| (t, f)));
        (succ, pred)
    }
}

/// Stable counting sort of `(row, value)` pairs into compressed rows, in
/// the caller's buffers: afterwards `flat[offsets[r]..offsets[r + 1]]`
/// holds row `r`'s values in iteration order. One pass counts row `r` into
/// `offsets[r + 2]`; the prefix sum turns `offsets[r + 1]` into row `r`'s
/// start; placing with that entry as the cursor leaves it at the row's
/// end, which is row `r + 1`'s start, so no separate cursor array is
/// needed. `fill` only pre-sizes `flat`.
pub(crate) fn scatter_rows<T: Clone>(
    rows: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
    fill: T,
    offsets: &mut Vec<u32>,
    flat: &mut Vec<T>,
) {
    offsets.clear();
    offsets.resize(rows + 2, 0);
    for (r, _) in pairs.clone() {
        offsets[r + 2] += 1;
    }
    for i in 2..rows + 2 {
        offsets[i] += offsets[i - 1];
    }
    flat.clear();
    flat.resize(offsets[rows + 1] as usize, fill);
    for (r, v) in pairs {
        let at = &mut offsets[r + 1];
        flat[*at as usize] = v;
        *at += 1;
    }
    offsets.pop();
}

/// Compressed sparse rows: per-row slices carved out of one flat array.
#[derive(Debug, Default)]
pub struct Csr {
    /// `offsets[r]..offsets[r + 1]` is row `r`'s slice of `flat`.
    offsets: Vec<u32>,
    flat: Vec<NodeId>,
}

impl Csr {
    /// Builds the table from `(row, value)` pairs with a counting sort
    /// ([`scatter_rows`]), so each row preserves the pairs' iteration
    /// order.
    pub(crate) fn scatter(rows: usize, pairs: impl Iterator<Item = (u32, NodeId)> + Clone) -> Csr {
        let mut csr = Csr::default();
        let pairs = pairs.map(|(r, v)| (r as usize, v));
        scatter_rows(rows, pairs, 0, &mut csr.offsets, &mut csr.flat);
        csr
    }

    /// Row `r` as a slice (empty for rows with no entries).
    pub fn row(&self, r: NodeId) -> &[NodeId] {
        &self.flat[self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize]
    }

    /// Total entries across all rows.
    pub fn entries(&self) -> usize {
        self.flat.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_preserve_insertion_order() {
        let mut a = EdgeArena::new();
        // Interleave rows; per-row order must survive the scatter.
        for (f, t) in [(2, 9), (0, 5), (2, 3), (1, 7), (2, 1), (0, 4)] {
            assert!(a.push(f, t));
        }
        let (succ, pred) = a.finalize(10);
        assert_eq!(succ.row(2), &[9, 3, 1]);
        assert_eq!(succ.row(0), &[5, 4]);
        assert_eq!(succ.row(1), &[7]);
        assert_eq!(succ.row(3), &[] as &[NodeId]);
        assert_eq!(pred.row(5), &[0]);
        assert_eq!(pred.row(1), &[2]);
        assert_eq!(succ.entries(), 6);
        assert_eq!(pred.entries(), 6);
    }

    #[test]
    fn duplicate_edges_keep_first_occurrence() {
        let mut a = EdgeArena::new();
        assert!(a.push(0, 1));
        assert!(a.push(0, 2));
        assert!(!a.push(0, 1));
        assert_eq!(a.len(), 2);
        let (succ, _) = a.finalize(3);
        assert_eq!(succ.row(0), &[1, 2]);
    }

    #[test]
    fn empty_log_finalizes_to_empty_rows() {
        let (succ, pred) = EdgeArena::new().finalize(4);
        for r in 0..4 {
            assert!(succ.row(r).is_empty());
            assert!(pred.row(r).is_empty());
        }
    }
}
