//! Output-identity of the search-phase optimizations, on randomly
//! generated corpora: at the slice level, the pruned enumeration detection
//! always uses produces *exactly* the naive feasible path set of the
//! reference `forward_paths` (full mode) and preserves every match-capable
//! path (cone mode).

use seal_corpus::CorpusConfig;
use seal_ir::callgraph::CallGraph;
use seal_ir::ids::FuncId;
use seal_pdg::cond::CondCtx;
use seal_pdg::graph::{NodeId, Pdg};
use seal_pdg::slice::{
    forward_paths, forward_paths_pruned, is_source, SinkReach, SliceConfig, SliceStats,
    ValueFlowPath,
};
use seal_solver::IncrementalTheory;
use std::collections::BTreeSet;

fn small(seed: u64) -> CorpusConfig {
    CorpusConfig {
        seed,
        drivers_per_template: 4,
        bug_rate: 0.3,
        patches_per_template: 2,
        refactor_patches: 2,
        scale: 1,
    }
}

#[test]
fn pruned_enumeration_equals_naive_on_random_modules() {
    // Large budget so the identity claim is not confounded by `max_paths`
    // truncation (sources that still hit it are skipped explicitly).
    let cfg = SliceConfig {
        max_depth: 48,
        max_paths: 4096,
    };
    let feasible = |mut ps: Vec<ValueFlowPath>| {
        ps.retain(|p| seal_solver::is_sat(&p.cond).possibly_sat());
        ps
    };
    for seed in [1u64, 2, 3] {
        let corpus = seal_corpus::generate(&small(seed));
        let target = corpus.target_module();
        let cg = CallGraph::build(&target);
        let scope: BTreeSet<FuncId> = (0..target.functions.len() as u32).map(FuncId).collect();
        let pdg = Pdg::build(&target, &cg, &scope);

        // The cheap per-edge sink test agrees with full classification.
        for u in 0..pdg.len() as NodeId {
            for &v in pdg.data_succs(u) {
                assert_eq!(
                    pdg.is_sink_edge(u, v),
                    pdg.use_kind(u, v).is_sink(),
                    "edge {u}->{v} (seed {seed})"
                );
            }
        }

        let reach = SinkReach::build(&pdg);
        let mut theory = IncrementalTheory::new();
        let mut stats = SliceStats::default();
        let mut checked = 0usize;
        for n in (0..pdg.len() as NodeId).filter(|&n| is_source(&pdg, n)) {
            let mut cctx = CondCtx::new(&pdg);
            let naive_raw = forward_paths(&pdg, &mut cctx, n, cfg);
            if naive_raw.len() >= cfg.max_paths {
                continue; // budget-bound: identity only holds below it
            }
            let naive = feasible(naive_raw);
            let mut cctx = CondCtx::new(&pdg);
            let pruned = feasible(forward_paths_pruned(
                &pdg,
                &mut cctx,
                n,
                cfg,
                Some(&reach),
                false,
                Some(&mut theory),
                &mut stats,
            ));
            assert_eq!(naive, pruned, "full-mode source {n} (seed {seed})");

            let mut cctx = CondCtx::new(&pdg);
            let cone = feasible(forward_paths_pruned(
                &pdg,
                &mut cctx,
                n,
                cfg,
                Some(&reach),
                true,
                Some(&mut theory),
                &mut stats,
            ));
            // Cone mode keeps exactly the classified-sink paths...
            let naive_sinks: Vec<&ValueFlowPath> =
                naive.iter().filter(|p| p.sink_kind.is_some()).collect();
            let cone_sinks: Vec<&ValueFlowPath> =
                cone.iter().filter(|p| p.sink_kind.is_some()).collect();
            assert_eq!(
                naive_sinks, cone_sinks,
                "cone sinks, source {n} (seed {seed})"
            );
            // ...and is an (ordered) subset of the naive enumeration.
            let mut it = naive.iter();
            for p in &cone {
                assert!(
                    it.any(|q| q == p),
                    "cone path not in naive order, source {n} (seed {seed})"
                );
            }
            checked += 1;
        }
        assert!(checked > 0, "no sources exercised (seed {seed})");
    }
}
