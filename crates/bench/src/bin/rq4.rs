//! RQ4 (§8.4) — efficiency: per-patch inference time and the detection
//! phase split between PDG generation and path searching.

use seal::scale::eval_base_config;
use seal_bench::{print_table, run_pipeline};

fn main() {
    let jobs = seal_runtime::worker_count();
    let r = run_pipeline(&eval_base_config());
    let n_patches = r.corpus.patches.len().max(1);
    let per_patch = r.infer_time / n_patches as u32;

    println!("RQ4: efficiency of SEAL (§8.4) — {jobs} worker(s) (set SEAL_JOBS to change)\n");
    print_table(
        &["Phase", "Measured", "Paper"],
        &[
            vec![
                "patch processing (total)".into(),
                format!("{:.2?} for {n_patches} patches", r.infer_time),
                "30h39m for 12,571 patches".into(),
            ],
            vec![
                "patch processing (per patch)".into(),
                format!("{per_patch:.2?}"),
                "8.78 s".into(),
            ],
            vec![
                "detection: PDG generation".into(),
                format!("{:.2?}", r.stats.pdg_time),
                "5h25m".into(),
            ],
            vec![
                "detection: path searching".into(),
                format!("{:.2?}", r.stats.search_time),
                "1h48m".into(),
            ],
            vec![
                "detection (wall)".into(),
                format!("{:.2?}", r.detect_time),
                "7h13m".into(),
            ],
        ],
    );
    println!(
        "\nregions examined: {} ({} skipped by the instantiation check)\n\
         search-phase counters: {} solver queries ({} answered by the memo),\n\
         {} UNSAT subtrees pruned, {} sources skipped with an empty sink cone\n\
         note: absolute numbers differ (synthetic corpus vs Linux v6.2); the\n\
         reproduced shape is the phase split into PDG generation and path\n\
         searching, and patch processing as a reusable one-time cost. Phase\n\
         times sum over workers; detection (wall) is elapsed time.",
        r.stats.regions,
        r.stats.skipped,
        r.stats.solver_queries,
        r.stats.solver_cache_hits,
        r.stats.subtrees_pruned,
        r.stats.sources_skipped_unreachable
    );
    let ratio = r.stats.pdg_time.as_secs_f64() / r.stats.search_time.as_secs_f64().max(1e-9);
    println!("PDG-generation : path-search ratio = {ratio:.1} : 1 (paper: ~3 : 1)");
}
