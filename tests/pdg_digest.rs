//! A pinned digest of the program dependence graphs the pipeline builds
//! over the seed-1 evaluation corpus. A PDG change meant to be
//! output-identical (flatter tables, fewer allocations, cheaper lookups) is
//! checked here against the graphs of the code before it, not only against
//! itself, as `frontend_digest` does for the frontend and
//! `pinned_hunt_reports` for the reports.
//!
//! The graphs are those of `cg.reachable_from(&[f])` for every target
//! function `f` (a superset of the scopes detection builds per shard), and
//! the whole-module graph of every patch's pre and post version (the scopes
//! inference builds are subsets of these). Per graph the digest covers node
//! kinds, `Ω` stamps, successor and predecessor rows, control-dependence
//! lists, [`Pdg::defs_of_operand`] for every local operand of every node,
//! [`Pdg::param_call_sites`], and the edge count.
//!
//! Update the digest only with a change that means to alter the graphs,
//! and say why.

use seal::corpus::{generate, CorpusConfig};
use seal::ir::callgraph::CallGraph;
use seal::ir::ids::FuncId;
use seal::ir::tac::Operand;
use seal::ir::Module;
use seal::pdg::{NodeId, NodeKind, Pdg};
use seal_store::Hasher128;
use std::collections::BTreeSet;

/// Digest of every graph named in the module docs, in build order.
const PDG_DIGEST: &str = "d3ac8b54c756e6768d5c7bf7a7770486";

/// Absorbs one graph into `h`.
fn absorb(h: &mut Hasher128, pdg: &Pdg<'_>) {
    h.update_u64(pdg.len() as u64);
    h.update_u64(pdg.edge_count() as u64);
    let mut locals = Vec::new();
    for n in 0..pdg.len() as NodeId {
        let kind = pdg.kind(n);
        assert_eq!(pdg.node(kind), Some(n), "node lookup of {kind:?}");
        h.update_str(&format!("{kind:?} {:?}", pdg.omega(n)));
        for row in [
            pdg.data_succs(n),
            pdg.data_preds(n),
            pdg.param_call_sites(n),
        ] {
            h.update_u64(row.len() as u64);
            for &m in row {
                h.update_u32(m);
            }
        }
        let ctrl = pdg.ctrl_deps(n);
        h.update_u64(ctrl.len() as u64);
        for (m, edge) in ctrl {
            h.update_u32(*m);
            h.update_str(&format!("{edge:?}"));
        }
        locals.clear();
        let mut note = |op: &Operand| {
            if let Some(l) = op.as_local() {
                locals.push(l);
            }
        };
        if let Some(inst) = pdg.inst(n) {
            inst.for_each_use(&mut note);
        } else if let Some(op) = pdg.terminator(n).and_then(|t| t.operand()) {
            note(op);
        }
        h.update_u64(locals.len() as u64);
        for &l in &locals {
            let defs = pdg.defs_of_operand(n, l);
            h.update_u32(l.0);
            h.update_u64(defs.len() as u64);
            for &d in defs {
                h.update_u32(d);
            }
        }
    }
}

fn build_and_absorb(h: &mut Hasher128, module: &Module, cg: &CallGraph, scope: &BTreeSet<FuncId>) {
    let pdg = Pdg::build(module, cg, scope);
    h.update_u64(scope.len() as u64);
    for f in scope {
        h.update_u32(f.0);
    }
    absorb(h, &pdg);
}

#[test]
fn eval_corpus_pdgs_are_pinned() {
    let corpus = generate(&CorpusConfig {
        seed: 1,
        ..seal::scale::eval_base_config()
    });
    let mut h = Hasher128::new();
    let target = corpus.target_module();
    let cg = CallGraph::build(&target);
    for f in 0..target.functions.len() as u32 {
        build_and_absorb(&mut h, &target, &cg, &cg.reachable_from(&[FuncId(f)]));
    }
    for patch in &corpus.patches {
        let compiled = patch.compile().expect("corpus patches compile");
        for module in [&compiled.pre, &compiled.post] {
            let cg = CallGraph::build(module);
            let scope = (0..module.functions.len() as u32).map(FuncId).collect();
            build_and_absorb(&mut h, module, &cg, &scope);
        }
    }
    assert_eq!(h.finish().to_string(), PDG_DIGEST, "PDG digest moved");
}

#[test]
fn node_lookup_rejects_kinds_outside_the_graph() {
    let corpus = generate(&CorpusConfig {
        seed: 1,
        ..seal::scale::eval_base_config()
    });
    let target = corpus.target_module();
    let cg = CallGraph::build(&target);
    let f = FuncId(0);
    let scope = cg.reachable_from(&[f]);
    let pdg = Pdg::build(&target, &cg, &scope);
    let body = target.body(f);
    let outside = (0..target.functions.len() as u32)
        .map(FuncId)
        .find(|g| !scope.contains(g))
        .expect("one function lies outside a one-root scope");
    let past_params = NodeKind::Param {
        func: f,
        index: body.param_count,
    };
    let past_block = NodeKind::Inst(seal::ir::ids::InstLoc {
        func: f,
        block: seal::ir::ids::BlockId(body.blocks.len() as u32),
        idx: 0,
    });
    let past_insts = NodeKind::Inst(seal::ir::ids::InstLoc {
        func: f,
        block: seal::ir::ids::BlockId(0),
        idx: body.blocks[0].insts.len(),
    });
    let elsewhere = NodeKind::Inst(seal::ir::ids::InstLoc::terminator(
        outside,
        seal::ir::ids::BlockId(0),
    ));
    for kind in [past_params, past_block, past_insts, elsewhere] {
        assert_eq!(pdg.node(&kind), None, "{kind:?}");
    }
}
