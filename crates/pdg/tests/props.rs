//! Seeded property tests for the PDG substrate: alias-relation algebra,
//! control-fact sanity on generated CFGs, and slicing invariants. Driven
//! by the in-tree PRNG so the suite runs fully offline.

use seal_ir::callgraph::CallGraph;
use seal_ir::ids::FuncId;
use seal_pdg::cell::{Cell, CellRoot, PathElem};
use seal_pdg::cond::{collect_conjuncts, CondCtx};
use seal_pdg::graph::Pdg;
use seal_pdg::slice::{backward_paths, forward_paths, is_source, SliceConfig};
use seal_runtime::rng::Rng;
use seal_solver::Formula;
use std::collections::BTreeSet;

fn gen_root(rng: &mut Rng) -> CellRoot {
    match rng.gen_range(0..3usize) {
        0 => CellRoot::ParamObj(FuncId(rng.gen_range(0..3u32)), rng.gen_range(0..3usize)),
        1 => CellRoot::Global("g".to_string()),
        _ => CellRoot::Str,
    }
}

fn gen_elem(rng: &mut Rng) -> PathElem {
    match rng.gen_range(0..3usize) {
        0 => PathElem::Field(rng.gen_range(0..4u64) * 8),
        1 => PathElem::Index,
        _ => PathElem::Deref,
    }
}

fn gen_cell(rng: &mut Rng) -> Cell {
    let mut c = Cell::root(gen_root(rng));
    let n = rng.gen_range(0..6usize);
    for _ in 0..n {
        c = c.extend(gen_elem(rng));
    }
    c
}

/// May-alias is reflexive and symmetric.
#[test]
fn may_alias_reflexive_symmetric() {
    let mut rng = Rng::seed_from_u64(0xD0_0001);
    for _ in 0..256 {
        let a = gen_cell(&mut rng);
        let b = gen_cell(&mut rng);
        assert!(a.may_alias(&a));
        assert_eq!(a.may_alias(&b), b.may_alias(&a));
    }
}

/// Must-alias implies may-alias.
#[test]
fn must_implies_may() {
    let mut rng = Rng::seed_from_u64(0xD0_0002);
    for _ in 0..256 {
        let a = gen_cell(&mut rng);
        let b = gen_cell(&mut rng);
        if a.must_alias(&b) {
            assert!(a.may_alias(&b));
        }
    }
}

/// Extending two cells by the same element preserves non-aliasing
/// (field-sensitivity is stable under projection).
#[test]
fn extension_preserves_disjointness() {
    let mut rng = Rng::seed_from_u64(0xD0_0003);
    for _ in 0..256 {
        let a = gen_cell(&mut rng);
        let b = gen_cell(&mut rng);
        let e = gen_elem(&mut rng);
        if !a.may_alias(&b) && !a.summary && !b.summary {
            let (ea, eb) = (a.extend(e), b.extend(e));
            assert!(!ea.may_alias(&eb), "{a} vs {b} alias after extension");
        }
    }
}

/// Different fields of the same base never alias.
#[test]
fn sibling_fields_disjoint() {
    let mut rng = Rng::seed_from_u64(0xD0_0004);
    for _ in 0..256 {
        let a = gen_cell(&mut rng);
        let o1 = rng.gen_range(0..4u64);
        let o2 = rng.gen_range(0..4u64);
        if o1 == o2 || a.summary {
            continue;
        }
        let f1 = a.extend(PathElem::Field(o1 * 8));
        let f2 = a.extend(PathElem::Field(o2 * 8));
        assert!(!f1.may_alias(&f2));
    }
}

/// Generated branchy programs for whole-pipeline invariants.
fn branchy_program(rng: &mut Rng) -> String {
    let n_conds = rng.gen_range(1..5usize);
    let n_derefs = rng.gen_range(1..5usize);
    let derefs: Vec<bool> = (0..n_derefs).map(|_| rng.gen_bool(0.5)).collect();
    let mut body = String::from("int acc = 0;\n");
    for i in 0..n_conds {
        let c = rng.gen_range(0..64i64);
        let guard = match rng.gen_range(0..3u8) {
            0 => format!("x > {c}"),
            1 => format!("x == {c}"),
            _ => format!("x != {c}"),
        };
        let stmt = if derefs[i % derefs.len()] {
            "acc = acc + *p;".to_string()
        } else {
            format!("acc = acc + {i};")
        };
        body.push_str(&format!("if ({guard}) {{ {stmt} }}\n"));
    }
    format!(
        "int helper_api(int v);\n\
         int gen(int x, int *p) {{\n{body}\nreturn acc;\n}}"
    )
}

const PIPELINE_CASES: usize = 48;

/// Every enumerated forward path starts at its query node, stays acyclic,
/// and ends either at a sink or a dead end.
#[test]
fn forward_paths_are_simple() {
    let mut rng = Rng::seed_from_u64(0xD0_0005);
    for _ in 0..PIPELINE_CASES {
        let src = branchy_program(&mut rng);
        let module = seal_ir::lower(&seal_kir::compile(&src, "g.c").unwrap());
        let cg = CallGraph::build(&module);
        let scope: BTreeSet<FuncId> = (0..module.functions.len() as u32).map(FuncId).collect();
        let pdg = Pdg::build(&module, &cg, &scope);
        let mut cctx = CondCtx::new(&pdg);
        for n in 0..pdg.nodes.len() as u32 {
            if !is_source(&pdg, n) {
                continue;
            }
            for p in forward_paths(&pdg, &mut cctx, n, SliceConfig::default()) {
                assert_eq!(p.source(), n);
                let set: BTreeSet<_> = p.nodes.iter().collect();
                assert_eq!(set.len(), p.nodes.len(), "cycle in path");
                // Consecutive nodes are data-connected.
                for w in p.nodes.windows(2) {
                    assert!(pdg.data_succs(w[0]).contains(&w[1]));
                }
            }
        }
    }
}

/// Backward paths are forward paths reversed: each hop is a data edge.
#[test]
fn backward_paths_follow_edges() {
    let mut rng = Rng::seed_from_u64(0xD0_0006);
    for _ in 0..PIPELINE_CASES {
        let src = branchy_program(&mut rng);
        let module = seal_ir::lower(&seal_kir::compile(&src, "g.c").unwrap());
        let cg = CallGraph::build(&module);
        let scope: BTreeSet<FuncId> = (0..module.functions.len() as u32).map(FuncId).collect();
        let pdg = Pdg::build(&module, &cg, &scope);
        let mut cctx = CondCtx::new(&pdg);
        // Query from every return terminator.
        for n in 0..pdg.nodes.len() as u32 {
            if pdg.terminator(n).is_none() {
                continue;
            }
            for p in backward_paths(&pdg, &mut cctx, n, SliceConfig::default()) {
                assert_eq!(p.sink(), n);
                for w in p.nodes.windows(2) {
                    assert!(pdg.data_succs(w[0]).contains(&w[1]));
                }
            }
        }
    }
}

/// Ω stamps order consecutive same-function instruction nodes consistently
/// with block order.
#[test]
fn omega_is_consistent() {
    let mut rng = Rng::seed_from_u64(0xD0_0007);
    for _ in 0..PIPELINE_CASES {
        let src = branchy_program(&mut rng);
        let module = seal_ir::lower(&seal_kir::compile(&src, "g.c").unwrap());
        let cg = CallGraph::build(&module);
        let scope: BTreeSet<FuncId> = (0..module.functions.len() as u32).map(FuncId).collect();
        let pdg = Pdg::build(&module, &cg, &scope);
        // Within one block, instruction order equals Ω order.
        let f = module.function("gen").unwrap();
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut last = None;
            for i in 0..b.insts.len() {
                let loc = seal_ir::ids::InstLoc {
                    func: f.id,
                    block: seal_ir::ids::BlockId(bi as u32),
                    idx: i,
                };
                let n = pdg.node(&seal_pdg::graph::NodeKind::Inst(loc)).unwrap();
                let om = pdg.omega(n).unwrap();
                if let Some(prev) = last {
                    assert!(prev < om);
                }
                last = Some(om);
            }
        }
    }
}

/// Generated programs with nested, compound and negated guards and loops,
/// so node conditions have several (and repeated) conjuncts,
/// disjunctions, negations and cyclic control dependences.
fn nested_program(rng: &mut Rng) -> String {
    fn guard(rng: &mut Rng) -> String {
        let c = rng.gen_range(0..8i64);
        let atom = |rng: &mut Rng| match rng.gen_range(0..4u8) {
            0 => format!("x > {c}"),
            1 => format!("y == {c}"),
            2 => "p == NULL".to_string(),
            _ => format!("x != {c}"),
        };
        match rng.gen_range(0..4u8) {
            0 => format!("{} && {}", atom(rng), atom(rng)),
            1 => format!("{} || {}", atom(rng), atom(rng)),
            2 => format!("!({})", atom(rng)),
            _ => atom(rng),
        }
    }
    fn block(rng: &mut Rng, depth: u32, out: &mut String) {
        for _ in 0..rng.gen_range(1..3usize) {
            match rng.gen_range(0..4u8) {
                0 if depth > 0 => {
                    out.push_str(&format!("if ({}) {{\n", guard(rng)));
                    block(rng, depth - 1, out);
                    out.push_str("} else {\n");
                    block(rng, depth - 1, out);
                    out.push_str("}\n");
                }
                1 if depth > 0 => {
                    out.push_str(&format!("if ({}) {{\n", guard(rng)));
                    block(rng, depth - 1, out);
                    out.push_str("}\n");
                }
                // Loop headers depend on themselves (the cycle guard).
                2 if depth > 0 && rng.gen_bool(0.5) => {
                    out.push_str(&format!("while ({}) {{\n", guard(rng)));
                    block(rng, depth - 1, out);
                    out.push_str("x = x - 1;\n}\n");
                }
                2 => out.push_str("acc = acc + *p;\n"),
                // A defined callee: with one call site its parameter
                // inherits that site's condition.
                3 if rng.gen_bool(0.3) => out.push_str("acc = inner(acc);\n"),
                _ => out.push_str("acc = helper_api(acc);\n"),
            }
        }
    }
    let mut body = String::from("int acc = 0;\n");
    block(rng, 3, &mut body);
    format!(
        "int helper_api(int v);\n\
         int inner(int v) {{ if (v > 3) {{ return helper_api(v); }} return 0; }}\n\
         int gen(int x, int y, int *p) {{\n{body}return acc;\n}}"
    )
}

/// Each node's memoized conjunct list is the reference split of its
/// recomputed condition, in the same order and carrying the interned ids;
/// each enumerated path's condition is the reference fold of its nodes'
/// conjuncts and its `cond_id` the id of that condition.
#[test]
fn node_conjuncts_match_collect_conjuncts() {
    let mut rng = Rng::seed_from_u64(0xD0_0008);
    let (mut multi, mut paths) = (0, 0);
    for _ in 0..PIPELINE_CASES {
        let src = nested_program(&mut rng);
        let module = seal_ir::lower(&seal_kir::compile(&src, "g.c").unwrap());
        let cg = CallGraph::build(&module);
        let scope: BTreeSet<FuncId> = (0..module.functions.len() as u32).map(FuncId).collect();
        let pdg = Pdg::build(&module, &cg, &scope);
        let mut cctx = CondCtx::new(&pdg);
        for n in 0..pdg.nodes.len() as u32 {
            let mut want = BTreeSet::new();
            collect_conjuncts(cctx.node_cond(n), &mut want);
            let got = cctx.node_conjuncts(n);
            multi += (got.len() > 1) as usize;
            let got_formulas: Vec<_> = got.iter().map(|c| &c.formula).collect();
            assert_eq!(got_formulas, want.iter().collect::<Vec<_>>(), "node {n}");
            for c in got.iter() {
                assert_eq!(c.id, cctx.solver().intern(&c.formula));
            }
        }
        for n in 0..pdg.nodes.len() as u32 {
            if !is_source(&pdg, n) {
                continue;
            }
            for p in forward_paths(&pdg, &mut cctx, n, SliceConfig::default()) {
                let mut all = BTreeSet::new();
                for &m in &p.nodes {
                    collect_conjuncts(cctx.node_cond(m), &mut all);
                }
                assert_eq!(p.cond, all.into_iter().fold(Formula::True, Formula::and));
                assert_eq!(p.cond_id, cctx.solver().intern(&p.cond));
                paths += 1;
            }
        }
    }
    assert!(
        multi > 0 && paths > 0,
        "vacuous: {multi} nodes, {paths} paths"
    );
}
