//! Derived facts about one lowered module, memoized next to it.
//!
//! Detection needs three pure functions of the target module besides the
//! module itself: its call graph (region discovery, scopes, PDG builds),
//! its environment hash and the `BodyKey` of every body a shard key
//! reads (see [`crate::cache`]). A one-shot run computes each once;
//! a warm `seal serve` daemon used to recompute all three on every
//! request against a module it already held. [`ModuleFacts`] holds them
//! so the warm module entry can carry them across requests.
//!
//! The call graph is built eagerly — every detection run needs it. The
//! hashes are lazy, one [`OnceLock`] for the environment hash and one per
//! function for its `BodyKey`: a run without a cache never
//! hashes anything, and a cached run hashes only the bodies inside shard
//! scopes, once per module lifetime. Lazily memoized values are exact
//! because each is a pure function of an immutable module: whichever
//! worker fills a slot first computes the same bytes any other would.

use seal_ir::body::FuncBody;
use seal_ir::callgraph::CallGraph;
use seal_ir::ids::FuncId;
use seal_ir::module::Module;
use seal_store::ContentHash;
use std::sync::OnceLock;

/// What a shard key reads of one scope function: the positional hash of
/// its body and the positional hash of the definition sites of the globals
/// it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BodyKey {
    pub(crate) body: ContentHash,
    pub(crate) globals: ContentHash,
}

impl BodyKey {
    /// [`seal_ir::codec::body_hash`] and [`seal_ir::codec::global_refs_hash`]
    /// of `f`, a body of `module`.
    pub(crate) fn of(module: &Module, f: &FuncBody) -> BodyKey {
        BodyKey {
            body: seal_ir::codec::body_hash(f),
            globals: seal_ir::codec::global_refs_hash(module, f),
        }
    }
}

/// Call graph plus lazily memoized content hashes of one module.
///
/// The facts do not hold the module; every accessor that hashes takes it
/// again, and it must be the module the facts were built from.
#[derive(Debug)]
pub struct ModuleFacts {
    call_graph: CallGraph,
    env_hash: OnceLock<ContentHash>,
    body_keys: Vec<OnceLock<BodyKey>>,
}

impl ModuleFacts {
    /// Builds the call graph of `module` and empty hash slots. Counts one
    /// `detect.callgraph_builds`.
    pub fn new(module: &Module) -> ModuleFacts {
        seal_obs::metrics::counter_add("detect.callgraph_builds", 1);
        ModuleFacts {
            call_graph: CallGraph::build(module),
            env_hash: OnceLock::new(),
            body_keys: (0..module.functions.len())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Whether these facts were built for a module of `module`'s shape (a
    /// cheap guard against pairing facts with the wrong module).
    pub(crate) fn fits(&self, module: &Module) -> bool {
        self.body_keys.len() == module.functions.len()
    }

    /// The module's call graph.
    pub(crate) fn call_graph(&self) -> &CallGraph {
        &self.call_graph
    }

    /// [`seal_ir::codec::env_hash`] of the module, computed on first use.
    pub(crate) fn env_hash(&self, module: &Module) -> ContentHash {
        *self
            .env_hash
            .get_or_init(|| seal_ir::codec::env_hash(module))
    }

    /// [`BodyKey`] of one function, computed on first use; `None` for an
    /// id outside the module.
    pub(crate) fn body_key(&self, module: &Module, fid: FuncId) -> Option<BodyKey> {
        let slot = self.body_keys.get(fid.index())?;
        Some(*slot.get_or_init(|| BodyKey::of(module, module.body(fid))))
    }

    /// Approximate resident bytes, charged against the warm budget next to
    /// the module. Fixed at construction: filling a hash slot allocates
    /// nothing.
    pub(crate) fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<ModuleFacts>() as u64
            + self.call_graph.approx_bytes()
            + (self.body_keys.len() * std::mem::size_of::<OnceLock<BodyKey>>()) as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const SRC: &str = "
        struct dev { int *cpu; int state; };
        struct ops { int (*prep)(struct dev *d); };
        int *alloc_buf(unsigned long size);
        int g_mode = 3;
        static int helper(struct dev *d) { d->state = g_mode; return 0; }
        int prep_a(struct dev *d) { d->cpu = alloc_buf(8); return helper(d); }
        int prep_b(struct dev *d) { if (d->state > 0) return helper(d); return -1; }
        struct ops ta = { .prep = prep_a, };
        struct ops tb = { .prep = prep_b, };
    ";

    pub(crate) fn module() -> Module {
        seal_ir::lower(&seal_kir::compile(SRC, "m.c").unwrap())
    }

    /// Moving `g_mode` up a line, every body where it was, moves the key of
    /// `helper` — the one body naming it — and nothing else.
    #[test]
    fn body_keys_follow_only_the_globals_a_body_names() {
        let m = module();
        let src = SRC.replace(
            "int *alloc_buf(unsigned long size);\n        int g_mode = 3;",
            "int g_mode = 3;\n        int *alloc_buf(unsigned long size);",
        );
        assert_ne!(src, SRC);
        let moved = seal_ir::lower(&seal_kir::compile(&src, "m.c").unwrap());
        let (facts, moved_facts) = (ModuleFacts::new(&m), ModuleFacts::new(&moved));
        assert_eq!(facts.env_hash(&m), moved_facts.env_hash(&moved));
        for f in &m.functions {
            let before = facts.body_key(&m, f.id).unwrap();
            let after = moved_facts.body_key(&moved, f.id).unwrap();
            assert_eq!(before.body, after.body, "{} moved", f.name);
            assert_eq!(
                before.globals == after.globals,
                f.name != "helper",
                "{}",
                f.name
            );
        }
    }

    /// Workers released together to fill the same empty slots all read
    /// the codec's bytes.
    #[test]
    fn concurrent_first_reads_agree() {
        let m = module();
        let facts = ModuleFacts::new(&m);
        assert!(facts.fits(&m));
        assert_eq!(facts.body_key(&m, FuncId(m.functions.len() as u32)), None);
        let eager: Vec<BodyKey> = m.functions.iter().map(|f| BodyKey::of(&m, f)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    assert_eq!(facts.env_hash(&m), seal_ir::codec::env_hash(&m));
                    for f in m.functions.iter().rev() {
                        assert_eq!(facts.body_key(&m, f.id), Some(eager[f.id.index()]));
                    }
                });
            }
        });
    }
}
