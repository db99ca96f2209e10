//! Post-dominators, control dependence, and control-flow order.
//!
//! Control dependence follows the classic Ferrante–Ottenstein–Warren
//! construction: block `B` is control dependent on branch block `A` (via a
//! specific out-edge) when `B` post-dominates that successor but not `A`
//! itself. The per-block order index implements the paper's `Ω` (topological
//! order over `E_o`; back edges are handled by reverse post-order, which
//! the paper's partial order also relies on).

use crate::arena::scatter_rows;
use seal_ir::body::FuncBody;
use seal_ir::ids::BlockId;
use seal_ir::tac::Terminator;

/// Which out-edge of a branch a control dependence arises from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BranchEdge {
    /// `then` side of a two-way branch.
    True,
    /// `else` side of a two-way branch.
    False,
    /// A `switch` case with its label values.
    Case(Vec<i64>),
    /// The `switch` default edge (labels listed are those *not* taken).
    Default(Vec<i64>),
}

/// Control-dependence and ordering facts for one function.
#[derive(Debug)]
pub struct ControlFacts {
    /// `dep_offsets[b]..dep_offsets[b + 1]` is block `b`'s slice of
    /// `dep_list`.
    dep_offsets: Vec<u32>,
    dep_list: Vec<(BlockId, BranchEdge)>,
    /// Reverse post-order index of each block (entry first); unreachable
    /// blocks get indices after all reachable ones.
    pub order: Vec<u32>,
}

/// Absent index (no immediate post-dominator, unvisited block).
const NONE: u32 = u32::MAX;

/// Reusable working arrays of [`ControlFacts::compute_in`]: the augmented
/// CFG as flat successor and reverse rows, and the traversal state. One
/// scratch serves every function of a PDG build, so only the largest body
/// grows it.
#[derive(Debug, Default)]
pub(crate) struct CfgScratch {
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    rev_off: Vec<u32>,
    rev: Vec<u32>,
    state: Vec<u8>,
    post: Vec<u32>,
    stack: Vec<(u32, u32)>,
    number: Vec<u32>,
    ipdom: Vec<u32>,
    edges: Vec<(u32, BranchEdge)>,
    marks: Vec<(u32, u32, BranchEdge)>,
}

impl CfgScratch {
    fn succs(&self, b: usize) -> &[u32] {
        &self.succ[self.succ_off[b] as usize..self.succ_off[b + 1] as usize]
    }

    fn revs(&self, b: usize) -> &[u32] {
        &self.rev[self.rev_off[b] as usize..self.rev_off[b + 1] as usize]
    }
}

impl ControlFacts {
    /// Computes control dependence and block order for a body.
    pub fn compute(body: &FuncBody) -> Self {
        Self::compute_in(body, &mut CfgScratch::default())
    }

    /// [`ControlFacts::compute`] on caller-owned working arrays.
    pub(crate) fn compute_in(body: &FuncBody, sc: &mut CfgScratch) -> Self {
        let n = body.blocks.len();
        let exit = n; // virtual exit node index
        let total = n + 1;

        // Successors on the augmented graph (returns flow to exit), and
        // the reverse rows, sources ascending.
        sc.succ_off.clear();
        sc.succ.clear();
        sc.succ_off.push(0);
        for block in &body.blocks {
            let before = sc.succ.len();
            block.terminator.for_each_successor(|s| sc.succ.push(s.0));
            if sc.succ.len() == before {
                sc.succ.push(exit as u32);
            }
            sc.succ_off.push(sc.succ.len() as u32);
        }
        sc.succ_off.push(sc.succ.len() as u32); // the exit has none
        let edges = (0..total).flat_map(|b| {
            let row = &sc.succ[sc.succ_off[b] as usize..sc.succ_off[b + 1] as usize];
            row.iter().map(move |&s| (s as usize, b as u32))
        });
        scatter_rows(total, edges, 0, &mut sc.rev_off, &mut sc.rev);

        // Reverse post-order on the forward graph (for Ω) from entry.
        let order = rpo_order(n, sc);

        // Post-dominators: iterative dataflow on the reverse graph rooted
        // at the virtual exit, in post-order of the forward graph.
        post_dominators(total, exit, sc);

        // Control dependence per FOW: for edge (a -> s), walk s up the
        // post-dominator tree to (exclusive) ipdom(a), marking each block.
        // Marks arrive with `a` ascending, so each block's list comes out
        // sorted by branch block.
        sc.marks.clear();
        for a in 0..n {
            sc.edges.clear();
            match &body.blocks[a].terminator {
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => {
                    sc.edges.push((then_bb.0, BranchEdge::True));
                    sc.edges.push((else_bb.0, BranchEdge::False));
                }
                Terminator::Switch { cases, default, .. } => {
                    // One edge per distinct case target, in first-label
                    // order, carrying every label that leads there.
                    for (v, b) in cases {
                        match sc.edges.iter_mut().find(|(t, _)| *t == b.0) {
                            Some((_, BranchEdge::Case(vs))) => vs.push(*v),
                            _ => sc.edges.push((b.0, BranchEdge::Case(vec![*v]))),
                        }
                    }
                    let all_labels: Vec<i64> = cases.iter().map(|(v, _)| *v).collect();
                    sc.edges.push((default.0, BranchEdge::Default(all_labels)));
                }
                _ => continue,
            }
            let stop = sc.ipdom[a];
            for (s, edge) in &sc.edges {
                let mut x = *s;
                while x != NONE && x != stop && x as usize != exit {
                    sc.marks.push((x, a as u32, edge.clone()));
                    x = sc.ipdom[x as usize];
                }
            }
        }

        // Scatter the marks into per-block rows, then compact each row in
        // place, dropping an entry equal to the one kept before it.
        let mut dep_offsets = Vec::new();
        let mut dep_list = Vec::new();
        let marks = sc
            .marks
            .iter()
            .map(|(x, a, edge)| (*x as usize, (BlockId(*a), edge.clone())));
        scatter_rows(
            n,
            marks,
            (BlockId(0), BranchEdge::True),
            &mut dep_offsets,
            &mut dep_list,
        );
        let mut kept = 0;
        for b in 0..n {
            let (lo, hi) = (dep_offsets[b] as usize, dep_offsets[b + 1] as usize);
            dep_offsets[b] = kept as u32;
            for r in lo..hi {
                if kept > dep_offsets[b] as usize && dep_list[kept - 1] == dep_list[r] {
                    continue;
                }
                dep_list.swap(kept, r);
                kept += 1;
            }
        }
        dep_offsets[n] = kept as u32;
        dep_list.truncate(kept);

        ControlFacts {
            dep_offsets,
            dep_list,
            order,
        }
    }

    /// The `(branch block, edge)` pairs block `b` is directly control
    /// dependent on, ascending by branch block.
    pub fn deps(&self, b: usize) -> &[(BlockId, BranchEdge)] {
        &self.dep_list[self.dep_offsets[b] as usize..self.dep_offsets[b + 1] as usize]
    }

    /// Ω comparison helper: true when `a` is ordered strictly before `b`.
    pub fn before(&self, a: BlockId, b: BlockId) -> bool {
        self.order[a.index()] < self.order[b.index()]
    }
}

/// Reverse post-order indices for the forward CFG (virtual exit excluded).
fn rpo_order(n: usize, sc: &mut CfgScratch) -> Vec<u32> {
    sc.state.clear();
    sc.state.resize(n, 0); // 0 unvisited, 1 on stack, 2 done
    sc.post.clear();
    sc.stack.clear();
    // Iterative DFS from entry block 0.
    if n > 0 {
        sc.stack.push((0, 0));
        sc.state[0] = 1;
        while let Some(&(b, i)) = sc.stack.last() {
            // The virtual exit only ever stands alone in a row.
            let next = sc.succs(b as usize).get(i as usize).copied();
            match next {
                Some(next) if (next as usize) < n => {
                    sc.stack.last_mut().expect("non-empty").1 += 1;
                    if sc.state[next as usize] == 0 {
                        sc.state[next as usize] = 1;
                        sc.stack.push((next, 0));
                    }
                }
                _ => {
                    sc.state[b as usize] = 2;
                    sc.post.push(b);
                    sc.stack.pop();
                }
            }
        }
    }
    let mut order = vec![NONE; n];
    let reachable = sc.post.len() as u32;
    for (i, b) in sc.post.iter().rev().enumerate() {
        order[*b as usize] = i as u32;
    }
    // Unreachable blocks go after all reachable ones, in index order.
    let mut next = reachable;
    for o in order.iter_mut() {
        if *o == NONE {
            *o = next;
            next += 1;
        }
    }
    order
}

/// Immediate post-dominators into `sc.ipdom` ([`NONE`] for the virtual
/// exit / unreachable-to-exit blocks). Iterative Cooper–Harvey–Kennedy on
/// the reverse graph.
fn post_dominators(total: usize, exit: usize, sc: &mut CfgScratch) {
    // Post-order of the *reverse* graph rooted at exit == reverse of a
    // forward traversal; compute order by DFS over reverse edges.
    sc.state.clear();
    sc.state.resize(total, 0);
    sc.post.clear();
    sc.stack.clear();
    sc.stack.push((exit as u32, 0));
    sc.state[exit] = 1;
    while let Some(&(b, i)) = sc.stack.last() {
        match sc.revs(b as usize).get(i as usize).copied() {
            Some(next) => {
                sc.stack.last_mut().expect("non-empty").1 += 1;
                if sc.state[next as usize] == 0 {
                    sc.state[next as usize] = 1;
                    sc.stack.push((next, 0));
                }
            }
            None => {
                sc.state[b as usize] = 2;
                sc.post.push(b);
                sc.stack.pop();
            }
        }
    }
    sc.number.clear();
    sc.number.resize(total, NONE);
    for (i, &b) in sc.post.iter().enumerate() {
        sc.number[b as usize] = i as u32; // higher = closer to exit
    }

    sc.ipdom.clear();
    sc.ipdom.resize(total, NONE);
    sc.ipdom[exit] = exit as u32;
    let mut changed = true;
    while changed {
        changed = false;
        // Process in reverse post-order of the reverse graph.
        for k in (0..sc.post.len()).rev() {
            let b = sc.post[k] as usize;
            if b == exit {
                continue;
            }
            // "Predecessors" in the reverse graph are forward successors.
            let mut new_idom = NONE;
            for j in sc.succ_off[b]..sc.succ_off[b + 1] {
                let s = sc.succ[j as usize];
                if sc.ipdom[s as usize] != NONE || s as usize == exit {
                    new_idom = match new_idom {
                        NONE => s,
                        cur => intersect(cur, s, &sc.ipdom, &sc.number),
                    };
                }
            }
            if new_idom != NONE && sc.ipdom[b] != new_idom {
                sc.ipdom[b] = new_idom;
                changed = true;
            }
        }
    }
    sc.ipdom[exit] = NONE;
}

fn intersect(a: u32, b: u32, ipdom: &[u32], number: &[u32]) -> u32 {
    let (mut x, mut y) = (a, b);
    while x != y {
        while number[x as usize] < number[y as usize] {
            x = match ipdom[x as usize] {
                NONE => y,
                p => p,
            };
        }
        while number[y as usize] < number[x as usize] {
            y = match ipdom[y as usize] {
                NONE => x,
                p => p,
            };
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_ir::lower;
    use seal_kir::compile;

    fn facts(src: &str, func: &str) -> (seal_ir::Module, ControlFacts) {
        let m = lower(&compile(src, "t.c").unwrap());
        let cf = ControlFacts::compute(m.function(func).unwrap());
        (m, cf)
    }

    #[test]
    fn if_then_is_control_dependent() {
        let (m, cf) = facts(
            "int f(int x) { int r = 0; if (x > 0) { r = 1; } return r; }",
            "f",
        );
        let f = m.function("f").unwrap();
        // The then-block holds the `r = 1` store/assign.
        let then_block = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts.iter().any(|i| {
                    matches!(
                        i,
                        seal_ir::Inst::Assign {
                            rv: seal_ir::Rvalue::Use(seal_ir::Operand::Const(1)),
                            ..
                        }
                    )
                })
            })
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(cf.deps(then_block).len(), 1);
        assert!(matches!(cf.deps(then_block)[0].1, BranchEdge::True));
    }

    #[test]
    fn join_block_is_not_dependent() {
        let (m, cf) = facts(
            "int f(int x) { int r = 0; if (x > 0) { r = 1; } return r; }",
            "f",
        );
        let f = m.function("f").unwrap();
        // The block with the return is the join — post-dominates the branch.
        let ret_block = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| matches!(b.terminator, seal_ir::Terminator::Return(Some(_))))
            .map(|(i, _)| i)
            .unwrap();
        assert!(cf.deps(ret_block).is_empty());
    }

    #[test]
    fn else_edge_polarity() {
        let (m, cf) = facts(
            "int f(int x) { int r; if (x > 0) { r = 1; } else { r = 2; } return r; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let else_block = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts.iter().any(|i| {
                    matches!(
                        i,
                        seal_ir::Inst::Assign {
                            rv: seal_ir::Rvalue::Use(seal_ir::Operand::Const(2)),
                            ..
                        }
                    )
                })
            })
            .map(|(i, _)| i)
            .unwrap();
        assert!(matches!(cf.deps(else_block)[0].1, BranchEdge::False));
    }

    #[test]
    fn loop_body_depends_on_loop_condition() {
        let (m, cf) = facts(
            "int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let body_block = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts.iter().any(|i| {
                    matches!(
                        i,
                        seal_ir::Inst::Assign {
                            rv: seal_ir::Rvalue::Binary(seal_kir::ast::BinOp::Add, ..),
                            ..
                        }
                    )
                })
            })
            .map(|(i, _)| i)
            .unwrap();
        assert!(!cf.deps(body_block).is_empty());
    }

    #[test]
    fn a_join_after_two_cases_lists_both_case_edges_in_label_order() {
        // `g()` runs after case 2 or case 1 but not on the default path, so
        // its block depends on the switch through both case edges.
        for _ in 0..8 {
            let (m, cf) = facts(
                "int a(void);\nint b(void);\nint g(void);\n\
                 int f(int s) {\n\
                   switch (s) { case 2: a(); break; case 1: b(); break; default: return 0; }\n\
                   return g();\n\
                 }",
                "f",
            );
            let f = m.function("f").unwrap();
            let join = f
                .blocks
                .iter()
                .position(|b| {
                    b.insts.iter().any(|i| {
                        matches!(i, seal_ir::Inst::Call { callee: seal_ir::Callee::Direct(n), .. } if n == "g")
                    })
                })
                .unwrap();
            let edges: Vec<&BranchEdge> = cf.deps(join).iter().map(|(_, e)| e).collect();
            assert_eq!(
                edges,
                [&BranchEdge::Case(vec![2]), &BranchEdge::Case(vec![1])],
                "{:?}",
                cf.deps(join)
            );
        }
    }

    #[test]
    fn switch_case_edges() {
        let (m, cf) = facts(
            "int f(int s) { int r = 0; switch (s) { case 1: r = 1; break; default: r = 9; } return r; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let case_block = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts.iter().any(|i| {
                    matches!(
                        i,
                        seal_ir::Inst::Assign {
                            rv: seal_ir::Rvalue::Use(seal_ir::Operand::Const(1)),
                            ..
                        }
                    )
                })
            })
            .map(|(i, _)| i)
            .unwrap();
        assert!(cf
            .deps(case_block)
            .iter()
            .any(|(_, e)| matches!(e, BranchEdge::Case(vs) if vs == &vec![1])));
    }

    #[test]
    fn order_respects_flow() {
        let (m, cf) = facts(
            "int f(int x) { int a = 1; if (x) { a = 2; } int b = a; return b; }",
            "f",
        );
        let f = m.function("f").unwrap();
        // Entry before all others.
        for b in 1..f.blocks.len() {
            assert!(cf.order[0] <= cf.order[b]);
        }
    }

    #[test]
    fn straight_line_has_no_deps() {
        let (_, cf) = facts("int f(int x) { int y = x + 1; return y; }", "f");
        assert!((0..cf.order.len()).all(|b| cf.deps(b).is_empty()));
    }

    #[test]
    fn goto_loop_control_dependence() {
        // A backward goto forms a loop; the guarded goto's target must be
        // control dependent on the branch.
        let (m, cf) = facts(
            "int f(int n) {\nagain:\n  n = n - 1;\n  if (n > 0) goto again;\n  return n;\n}",
            "f",
        );
        let f = m.function("f").unwrap();
        // The block holding `n = n - 1` (the loop body) is control
        // dependent on the branch.
        let body_block = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts.iter().any(|i| {
                    matches!(
                        i,
                        seal_ir::Inst::Assign {
                            rv: seal_ir::Rvalue::Binary(seal_kir::ast::BinOp::Sub, ..),
                            ..
                        }
                    )
                })
            })
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            !cf.deps(body_block).is_empty(),
            "goto-loop body must be control dependent on the guard"
        );
    }

    #[test]
    fn goto_error_exit_control_dependence() {
        let (m, cf) = facts(
            "void release(int *p);\n\
             int f(int *p, int x) {\n\
               if (x < 0) goto out;\n\
               return 0;\n\
             out:\n\
               release(p);\n\
               return -22;\n\
             }",
            "f",
        );
        let f = m.function("f").unwrap();
        let err_block = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts
                    .iter()
                    .any(|i| matches!(i, seal_ir::Inst::Call { .. }))
            })
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(cf.deps(err_block).len(), 1);
        assert!(matches!(cf.deps(err_block)[0].1, BranchEdge::True));
    }

    #[test]
    fn nested_if_accumulates_two_deps_transitively() {
        let (m, cf) = facts(
            "int f(int x, int y) { int r = 0; if (x) { if (y) { r = 1; } } return r; }",
            "f",
        );
        let f = m.function("f").unwrap();
        let inner = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts.iter().any(|i| {
                    matches!(
                        i,
                        seal_ir::Inst::Assign {
                            rv: seal_ir::Rvalue::Use(seal_ir::Operand::Const(1)),
                            ..
                        }
                    )
                })
            })
            .map(|(i, _)| i)
            .unwrap();
        // Direct dependence on the inner branch only; the outer is reached
        // transitively through the inner branch block's own deps.
        assert_eq!(cf.deps(inner).len(), 1);
        let (inner_branch, _) = cf.deps(inner)[0];
        assert_eq!(cf.deps(inner_branch.index()).len(), 1);
    }
}
