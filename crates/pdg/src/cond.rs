//! Path-condition symbolization.
//!
//! Computes, for each PDG node, the quasi-path-sensitive condition under
//! which the node executes (§6.1: "path condition Ψ(p) is computed by
//! recursively traversing control and data dependence edges"). Branch
//! operands are traced back through their defining assignments so that the
//! resulting [`Formula`] speaks about *opaque value nodes* (loads, call
//! returns, parameters) — exactly the granularity the specification
//! abstraction of §6.3.3 later maps into the `V` domain.

use crate::domtree::BranchEdge;
use crate::graph::{NodeId, NodeKind, Pdg};
use seal_ir::ids::LocalId;
use seal_ir::tac::{Inst, Operand, Rvalue, Terminator};
use seal_kir::ast::{BinOp, UnOp};
use seal_runtime::FxHashMap;
use seal_solver::{CmpOp, Formula, FormulaId, SolverCache, Term};
use std::collections::{BTreeSet, HashSet};
use std::rc::Rc;

/// A symbolic variable of a path condition.
///
/// Single-definition values are named by their defining node; a local with
/// several reaching definitions at the consumer (a loop-carried variable,
/// for instance) is a *merge* and stays opaque — it can never be abstracted
/// into interaction data, and distinct merges never conflate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CondVar {
    /// The value produced by one node.
    Node(NodeId),
    /// The merged value of `local` as observed at a consumer node.
    Merge(NodeId, LocalId),
}

impl CondVar {
    /// The underlying node for single-definition variables.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            CondVar::Node(n) => Some(*n),
            CondVar::Merge(..) => None,
        }
    }
}

impl std::fmt::Display for CondVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CondVar::Node(n) => write!(f, "n{n}"),
            CondVar::Merge(n, l) => write!(f, "merge({n},{l})"),
        }
    }
}

/// One distinct top-level conjunct of a node's execution condition, with
/// its id in the owning [`CondCtx`]'s solver.
#[derive(Debug, Clone)]
pub struct Conjunct {
    /// The conjunct (never `True` and never an `And`).
    pub formula: Formula<CondVar>,
    /// Its interned id.
    pub id: FormulaId,
}

/// A node's distinct top-level conjuncts in `Formula` order (the order
/// [`collect_conjuncts`] yields), shared by every path through the node.
pub type Conjuncts = Rc<[Conjunct]>;

/// Memoizing condition evaluator over one PDG.
///
/// Each node's condition is symbolized, split into its distinct top-level
/// conjuncts and interned once; paths and the DFS's incremental theory
/// work on those shared lists and their ids. The context owns the
/// [`SolverCache`] the ids belong to, so path feasibility is asked on the
/// same ids ([`CondCtx::solver`]).
pub struct CondCtx<'p, 'm> {
    pdg: &'p Pdg<'m>,
    conjuncts: Vec<Option<Conjuncts>>,
    /// Lists shared by every non-terminator instruction of one block, by
    /// control-dependence list id (see [`CondCtx::node_conjuncts`]).
    block_conjuncts: FxHashMap<u32, Conjuncts>,
    solver: SolverCache<CondVar>,
}

impl<'p, 'm> CondCtx<'p, 'm> {
    /// Creates an evaluator for a PDG.
    pub fn new(pdg: &'p Pdg<'m>) -> Self {
        CondCtx {
            pdg,
            conjuncts: vec![None; pdg.len()],
            block_conjuncts: FxHashMap::default(),
            solver: SolverCache::new(),
        }
    }

    /// The solver cache that interns this context's conditions.
    pub fn solver(&mut self) -> &mut SolverCache<CondVar> {
        &mut self.solver
    }

    /// The condition under which `n` executes: the conjunction of its
    /// governing branch conditions, transitively. Recomputed on each call;
    /// the search reads the memoized [`CondCtx::node_conjuncts`] instead.
    pub fn node_cond(&mut self, n: NodeId) -> Formula<CondVar> {
        self.node_cond_inner(n, &mut HashSet::new())
    }

    /// The distinct top-level conjuncts of [`CondCtx::node_cond`]`(n)` in
    /// the order [`collect_conjuncts`] yields, computed and interned once.
    ///
    /// A non-terminator instruction's condition is a function of its
    /// block's control-dependence list alone: the recursion visits only
    /// branch terminators (so the node never meets itself in the cycle
    /// guard) and call-site inheritance applies to parameters only. Such
    /// nodes share one list per block.
    pub fn node_conjuncts(&mut self, n: NodeId) -> Conjuncts {
        if let Some(c) = &self.conjuncts[n as usize] {
            return c.clone();
        }
        let block = match self.pdg.kind(n) {
            NodeKind::Inst(loc) if !loc.is_terminator() => self.pdg.ctrl_list_id(n),
            _ => None,
        };
        let shared = block.and_then(|b| self.block_conjuncts.get(&b).cloned());
        let list = match shared {
            Some(list) => list,
            None => {
                let mut set = BTreeSet::new();
                collect_conjuncts(self.node_cond(n), &mut set);
                let list: Conjuncts = set
                    .into_iter()
                    .map(|formula| Conjunct {
                        id: self.solver.intern(&formula),
                        formula,
                    })
                    .collect();
                if let Some(b) = block {
                    self.block_conjuncts.insert(b, list.clone());
                }
                list
            }
        };
        self.conjuncts[n as usize] = Some(list.clone());
        list
    }

    /// Ψ(p) of a path through `nodes` — the conjunction of the nodes'
    /// distinct conjuncts in `Formula` order — and its id, built from the
    /// memoized conjunct lists without re-interning any conjunct.
    pub(crate) fn path_cond(&mut self, nodes: &[NodeId]) -> (Formula<CondVar>, FormulaId) {
        // Nodes of one block share one list; collect each list once.
        let mut lists: Vec<Conjuncts> = Vec::new();
        for &n in nodes {
            let c = self.node_conjuncts(n);
            if !c.is_empty() && !lists.iter().any(|l| Rc::ptr_eq(l, &c)) {
                lists.push(c);
            }
        }
        let mut all: Vec<&Conjunct> = lists.iter().flat_map(|l| l.iter()).collect();
        if lists.len() > 1 {
            // Equal ids ⇔ equal formulas, so dedup by id after the sort.
            all.sort_by(|a, b| {
                if a.id == b.id {
                    std::cmp::Ordering::Equal
                } else {
                    a.formula.cmp(&b.formula)
                }
            });
            all.dedup_by_key(|c| c.id);
        }
        let cond = all
            .iter()
            .fold(Formula::True, |acc, c| acc.and(c.formula.clone()));
        let id = self.solver.conjoin(all.iter().map(|c| c.id));
        (cond, id)
    }

    fn node_cond_inner(&mut self, n: NodeId, guard: &mut HashSet<NodeId>) -> Formula<CondVar> {
        if !guard.insert(n) {
            // Loop-carried control dependence (while-condition blocks
            // depend on themselves): drop the cyclic conjunct.
            return Formula::True;
        }
        let pdg = self.pdg;
        let mut acc = Formula::True;
        for (branch, edge) in pdg.ctrl_deps(n) {
            let local = self.edge_formula(*branch, edge);
            let outer = self.node_cond_inner(*branch, guard);
            acc = acc.and(local).and(outer);
        }
        // Context sensitivity: a parameter of a function with a single
        // in-scope call site inherits that site's condition (function
        // cloning in spirit, §7; multiple callers merge to True).
        if matches!(pdg.kind(n), NodeKind::Param { .. }) {
            let sites = pdg.param_call_sites(n);
            if sites.len() == 1 && !guard.contains(&sites[0]) {
                acc = acc.and(self.node_cond_inner(sites[0], guard));
            }
        }
        guard.remove(&n);
        acc
    }

    /// The formula contributed by taking `edge` out of branch node `b`.
    pub fn edge_formula(&mut self, b: NodeId, edge: &BranchEdge) -> Formula<CondVar> {
        let Some(term) = self.pdg.terminator(b) else {
            return Formula::True;
        };
        match (term, edge) {
            (Terminator::Branch { cond, .. }, BranchEdge::True) => self.truthy(b, cond.clone()),
            (Terminator::Branch { cond, .. }, BranchEdge::False) => {
                self.truthy(b, cond.clone()).negate()
            }
            (Terminator::Switch { disc, .. }, BranchEdge::Case(labels)) => {
                let t = self.term_of(b, disc.clone());
                labels
                    .iter()
                    .map(|&v| Formula::atom(t.clone(), CmpOp::Eq, Term::Const(v)))
                    .fold(Formula::False, Formula::or)
            }
            (Terminator::Switch { disc, .. }, BranchEdge::Default(labels)) => {
                let t = self.term_of(b, disc.clone());
                labels
                    .iter()
                    .map(|&v| Formula::atom(t.clone(), CmpOp::Ne, Term::Const(v)))
                    .fold(Formula::True, Formula::and)
            }
            _ => Formula::True,
        }
    }

    /// Symbolizes an operand used at node `at` as a boolean condition.
    pub fn truthy(&mut self, at: NodeId, op: Operand) -> Formula<CondVar> {
        match self.symbolize(at, op, 0) {
            Sym::F(f) => f,
            Sym::T(t) => Formula::atom(t, CmpOp::Ne, Term::Const(0)),
        }
    }

    /// Symbolizes an operand used at node `at` as a term.
    pub fn term_of(&mut self, at: NodeId, op: Operand) -> Term<CondVar> {
        match self.symbolize(at, op, 0) {
            Sym::T(t) => t,
            // A comparison used as an integer: opaque.
            Sym::F(_) => Term::Var(CondVar::Node(at)),
        }
    }

    fn symbolize(&mut self, at: NodeId, op: Operand, depth: usize) -> Sym {
        const MAX_DEPTH: usize = 16;
        if depth > MAX_DEPTH {
            return Sym::T(Term::Var(CondVar::Node(at)));
        }
        match op {
            Operand::Const(c) => Sym::T(Term::Const(c)),
            Operand::Null => Sym::T(Term::Const(0)),
            Operand::Str(_) | Operand::FuncRef(_) => Sym::T(Term::Var(CondVar::Node(at))),
            Operand::Global(_) => {
                // A global read at this node: opaque value named by the
                // GlobalDef node feeding it, if unique, else the reader.
                Sym::T(Term::Var(CondVar::Node(at)))
            }
            Operand::Local(l) => {
                let defs = self.pdg.defs_of_operand(at, l);
                if defs.len() != 1 {
                    // Merged definitions: a loop-carried or branch-merged
                    // value; opaque and unique per (consumer, local).
                    return Sym::T(Term::Var(CondVar::Merge(at, l)));
                }
                let def = defs[0];
                match self.pdg.kind(def) {
                    NodeKind::Inst(loc) if !loc.is_terminator() => {
                        let inst = self
                            .pdg
                            .module
                            .body(loc.func)
                            .inst_at(*loc)
                            .expect("non-terminator loc");
                        match inst {
                            Inst::Assign { rv, .. } => {
                                self.symbolize_rvalue(def, rv.clone(), depth + 1)
                            }
                            // Loads, calls, addr-of: opaque values.
                            _ => Sym::T(Term::Var(CondVar::Node(def))),
                        }
                    }
                    _ => Sym::T(Term::Var(CondVar::Node(def))),
                }
            }
        }
    }

    fn symbolize_rvalue(&mut self, at: NodeId, rv: Rvalue, depth: usize) -> Sym {
        match rv {
            Rvalue::Use(op) => self.symbolize(at, op, depth),
            Rvalue::Unary(UnOp::Not, a) => {
                let f = match self.symbolize(at, a, depth) {
                    Sym::F(f) => f,
                    Sym::T(t) => Formula::atom(t, CmpOp::Ne, Term::Const(0)),
                };
                Sym::F(f.negate())
            }
            Rvalue::Unary(UnOp::Neg, a) => match self.symbolize(at, a, depth) {
                Sym::T(Term::Const(c)) => Sym::T(Term::Const(-c)),
                _ => Sym::T(Term::Var(CondVar::Node(at))),
            },
            Rvalue::Unary(..) => Sym::T(Term::Var(CondVar::Node(at))),
            Rvalue::Binary(op, a, b) => {
                if let Some(cmp) = cmp_of(op) {
                    let ta = self.operand_term(at, a, depth);
                    let tb = self.operand_term(at, b, depth);
                    return Sym::F(Formula::atom(ta, cmp, tb));
                }
                match op {
                    BinOp::LogAnd => {
                        let fa = self.operand_truthy(at, a, depth);
                        let fb = self.operand_truthy(at, b, depth);
                        Sym::F(fa.and(fb))
                    }
                    BinOp::LogOr => {
                        let fa = self.operand_truthy(at, a, depth);
                        let fb = self.operand_truthy(at, b, depth);
                        Sym::F(fa.or(fb))
                    }
                    _ => Sym::T(Term::Var(CondVar::Node(at))),
                }
            }
        }
    }

    fn operand_truthy(&mut self, at: NodeId, op: Operand, depth: usize) -> Formula<CondVar> {
        match self.symbolize(at, op, depth) {
            Sym::F(f) => f,
            Sym::T(t) => Formula::atom(t, CmpOp::Ne, Term::Const(0)),
        }
    }

    fn operand_term(&mut self, at: NodeId, op: Operand, depth: usize) -> Term<CondVar> {
        match self.symbolize(at, op, depth) {
            Sym::T(t) => t,
            Sym::F(_) => Term::Var(CondVar::Node(at)),
        }
    }
}

enum Sym {
    /// A term (value-like).
    T(Term<CondVar>),
    /// A formula (comparison-like).
    F(Formula<CondVar>),
}

/// Splits `f` into its distinct top-level conjuncts: `True` contributes
/// nothing and nested `And`s flatten. The reference for
/// [`CondCtx::node_conjuncts`].
pub fn collect_conjuncts(f: Formula<CondVar>, out: &mut BTreeSet<Formula<CondVar>>) {
    match f {
        Formula::True => {}
        Formula::And(xs) => {
            for x in xs {
                collect_conjuncts(x, out);
            }
        }
        other => {
            out.insert(other);
        }
    }
}

fn cmp_of(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_ir::callgraph::CallGraph;
    use seal_ir::ids::FuncId;
    use seal_ir::lower;
    use seal_kir::compile;
    use std::collections::BTreeSet;

    fn pdg_for(src: &str) -> (seal_ir::Module, CallGraph) {
        let m = lower(&compile(src, "t.c").unwrap());
        let cg = CallGraph::build(&m);
        (m, cg)
    }

    fn full(m: &seal_ir::Module) -> BTreeSet<FuncId> {
        (0..m.functions.len() as u32).map(FuncId).collect()
    }

    /// Finds the node for the first instruction matching a predicate.
    fn find_node<'a>(
        pdg: &Pdg<'a>,
        m: &seal_ir::Module,
        func: &str,
        pred: impl Fn(&Inst) -> bool,
    ) -> NodeId {
        let f = m.function(func).unwrap();
        let loc = f
            .inst_locs()
            .find(|&loc| pred(f.inst_at(loc).unwrap()))
            .expect("matching instruction");
        pdg.node(&NodeKind::Inst(loc)).unwrap()
    }

    #[test]
    fn then_branch_condition_is_comparison() {
        let (m, cg) =
            pdg_for("int g(void);\nint f(int x) { int r = 0; if (x > 3) { r = g(); } return r; }");
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let call = find_node(&pdg, &m, "f", |i| matches!(i, Inst::Call { .. }));
        let mut cx = CondCtx::new(&pdg);
        let cond = cx.node_cond(call);
        // x > 3, with x symbolized to the Param node.
        let Formula::Atom(a) = &cond else {
            panic!("expected atom, got {cond:?}")
        };
        assert_eq!(a.op, CmpOp::Gt);
        assert!(matches!(a.rhs, Term::Const(3)));
        let Term::Var(v) = &a.lhs else { panic!() };
        assert!(matches!(
            pdg.kind(v.node().unwrap()),
            NodeKind::Param { .. }
        ));
    }

    #[test]
    fn else_branch_condition_is_negated() {
        let (m, cg) = pdg_for(
            "int g(void);\nint f(int x) { int r = 0; if (x > 3) { r = 1; } else { r = g(); } return r; }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let call = find_node(&pdg, &m, "f", |i| matches!(i, Inst::Call { .. }));
        let mut cx = CondCtx::new(&pdg);
        let cond = cx.node_cond(call).nnf();
        let Formula::Atom(a) = &cond else {
            panic!("expected atom, got {cond:?}")
        };
        assert_eq!(a.op, CmpOp::Le);
    }

    #[test]
    fn null_check_symbolizes_to_eq_zero() {
        let (m, cg) = pdg_for(
            "void *kmalloc(unsigned long n);\n\
             int f(void) { void *p = kmalloc(8); if (p == NULL) { return -12; } return 0; }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        // The return -12 terminator.
        let f = m.function("f").unwrap();
        let ret_loc = f
            .all_locs()
            .find(|&loc| {
                loc.is_terminator()
                    && matches!(
                        f.block(loc.block).terminator,
                        Terminator::Return(Some(Operand::Const(-12)))
                    )
            })
            .unwrap();
        let rn = pdg.node(&NodeKind::Inst(ret_loc)).unwrap();
        let mut cx = CondCtx::new(&pdg);
        let cond = cx.node_cond(rn);
        let Formula::Atom(a) = &cond else {
            panic!("expected atom, got {cond:?}")
        };
        assert_eq!(a.op, CmpOp::Eq);
        assert!(matches!(a.rhs, Term::Const(0)));
        // The variable is the call node (the API return value).
        let Term::Var(v) = &a.lhs else { panic!() };
        assert!(matches!(
            pdg.inst(v.node().unwrap()),
            Some(Inst::Call { .. })
        ));
    }

    #[test]
    fn switch_case_condition() {
        let (m, cg) = pdg_for(
            "int g(void);\nint f(int s) { int r = 0; switch (s) { case 5: r = g(); break; default: break; } return r; }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let call = find_node(&pdg, &m, "f", |i| matches!(i, Inst::Call { .. }));
        let mut cx = CondCtx::new(&pdg);
        let cond = cx.node_cond(call);
        let Formula::Atom(a) = &cond else {
            panic!("expected atom, got {cond:?}")
        };
        assert_eq!(a.op, CmpOp::Eq);
        assert!(matches!(a.rhs, Term::Const(5)));
    }

    #[test]
    fn nested_conditions_conjoin() {
        let (m, cg) = pdg_for(
            "int g(void);\nint f(int x, int y) { int r = 0; if (x > 0) { if (y < 9) { r = g(); } } return r; }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let call = find_node(&pdg, &m, "f", |i| matches!(i, Inst::Call { .. }));
        let mut cx = CondCtx::new(&pdg);
        let cond = cx.node_cond(call);
        assert_eq!(cond.atom_count(), 2);
        assert!(seal_solver::is_sat(&cond).possibly_sat());
    }

    #[test]
    fn logical_and_condition_expands() {
        let (m, cg) = pdg_for(
            "int g(void);\nint f(int x, int y) { int r = 0; if (x > 0 && y == 2) { r = g(); } return r; }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let call = find_node(&pdg, &m, "f", |i| matches!(i, Inst::Call { .. }));
        let mut cx = CondCtx::new(&pdg);
        let cond = cx.node_cond(call);
        assert_eq!(cond.atom_count(), 2);
    }

    #[test]
    fn negated_pointer_check() {
        let (m, cg) = pdg_for(
            "void *kmalloc(unsigned long n);\nint g(void);\n\
             int f(void) { void *p = kmalloc(8); if (!p) { return -12; } return g(); }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let f = m.function("f").unwrap();
        let ret_loc = f
            .all_locs()
            .find(|&loc| {
                loc.is_terminator()
                    && matches!(
                        f.block(loc.block).terminator,
                        Terminator::Return(Some(Operand::Const(-12)))
                    )
            })
            .unwrap();
        let rn = pdg.node(&NodeKind::Inst(ret_loc)).unwrap();
        let mut cx = CondCtx::new(&pdg);
        // !(p != 0) simplifies under NNF to p == 0.
        let cond = cx.node_cond(rn).nnf();
        let Formula::Atom(a) = &cond else {
            panic!("expected atom, got {cond:?}")
        };
        assert_eq!(a.op, CmpOp::Eq);
    }

    #[test]
    fn loop_condition_does_not_recurse_forever() {
        let (m, cg) = pdg_for(
            "int g(void);\nint f(int n) { int i = 0; while (i < n) { i = i + g(); } return i; }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let call = find_node(&pdg, &m, "f", |i| matches!(i, Inst::Call { .. }));
        let mut cx = CondCtx::new(&pdg);
        let cond = cx.node_cond(call);
        assert!(cond.atom_count() >= 1);
    }

    #[test]
    fn straight_line_is_true() {
        let (m, cg) = pdg_for("int f(int x) { int y = x + 1; return y; }");
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let assign = find_node(&pdg, &m, "f", |i| matches!(i, Inst::Assign { .. }));
        let mut cx = CondCtx::new(&pdg);
        assert_eq!(cx.node_cond(assign), Formula::True);
    }
}
