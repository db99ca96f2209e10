//! Security patches: pre/post source pairs and their compiled forms.
//!
//! The paper links both versions into one bitcode with renamed symbols
//! (§7, "LLVM Bitcode Generation"); here the two versions are compiled to
//! separate [`Module`]s and compared structurally, which serves the same
//! purpose without the renaming machinery.

use crate::error::{SealError, Stage};
use seal_ir::module::Module;
use seal_kir::pretty;
use seal_runtime::catch_task_panic;
use std::collections::BTreeSet;

/// A security patch: two versions of one compilation unit. Patch
/// descriptions are deliberately *not* part of the input (§5: "patch
/// descriptions are excluded").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patch {
    /// Stable identifier (commit hash in the paper's dataset).
    pub id: String,
    /// Pre-patch source.
    pub pre: String,
    /// Post-patch source.
    pub post: String,
}

impl Patch {
    /// Creates a patch from its two versions.
    pub fn new(id: impl Into<String>, pre: impl Into<String>, post: impl Into<String>) -> Self {
        Patch {
            id: id.into(),
            pre: pre.into(),
            post: post.into(),
        }
    }

    /// Compiles both versions and computes the changed-function set.
    ///
    /// Each stage is fault-isolated: frontend diagnostics come back as
    /// [`SealError::Compile`], structural lowering defects as
    /// [`SealError::Lower`], and a panic inside either stage is contained
    /// into [`SealError::Panic`] instead of unwinding into the caller's
    /// batch.
    pub fn compile(&self) -> Result<CompiledPatch, SealError> {
        self.compile_inner(false)
    }

    /// [`Patch::compile`] plus the semantic unit hashes the incremental
    /// cache keys on ([`CompiledPatch::pre_unit_hash`]). Split from
    /// `compile` so uncached runs never pay for hashing.
    pub fn compile_hashed(&self) -> Result<CompiledPatch, SealError> {
        self.compile_inner(true)
    }

    fn compile_inner(&self, hashed: bool) -> Result<CompiledPatch, SealError> {
        let _span = seal_obs::span!("patch.compile", id = self.id.clone());
        seal_obs::metrics::counter_add("frontend.compiles", 2);
        let pre_tu = contain(Stage::Frontend, || {
            let _span = seal_obs::span!("frontend.compile", ver = "pre");
            seal_kir::compile(&self.pre, &format!("{}:pre", self.id))
        })??;
        let post_tu = contain(Stage::Frontend, || {
            let _span = seal_obs::span!("frontend.compile", ver = "post");
            seal_kir::compile(&self.post, &format!("{}:post", self.id))
        })??;
        let pre = contain(Stage::Lower, || seal_ir::lower_checked(&pre_tu))??;
        let post = contain(Stage::Lower, || seal_ir::lower_checked(&post_tu))??;
        let changed = changed_functions(&pre_tu, &post_tu);
        let (pre_unit_hash, post_unit_hash) = if hashed {
            (
                Some(seal_kir::hash::unit_hash(&pre_tu)),
                Some(seal_kir::hash::unit_hash(&post_tu)),
            )
        } else {
            (None, None)
        };
        Ok(CompiledPatch {
            id: self.id.clone(),
            pre_unit_hash,
            post_unit_hash,
            pre,
            post,
            changed,
        })
    }
}

/// Runs one pipeline stage with panic containment: the inner `Result`'s
/// error converts into a typed [`SealError`], a panic becomes
/// [`SealError::Panic`] for `stage`.
pub(crate) fn contain<T, E: Into<SealError>>(
    stage: Stage,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<Result<T, SealError>, SealError> {
    match catch_task_panic(f) {
        Ok(r) => Ok(r.map_err(Into::into)),
        Err(p) => Err(SealError::panic(stage, p)),
    }
}

/// A compiled patch: both module versions plus the set of function names
/// whose bodies differ (including additions/removals).
#[derive(Debug)]
pub struct CompiledPatch {
    /// Patch identifier.
    pub id: String,
    /// Pre-patch module.
    pub pre: Module,
    /// Post-patch module.
    pub post: Module,
    /// Names of syntactically changed functions.
    pub changed: BTreeSet<String>,
    /// Semantic content hash of the pre-patch translation unit
    /// ([`seal_kir::hash::unit_hash`]): stable under renames of the file
    /// and reordering of siblings, sensitive to every semantic edit. The
    /// incremental cache keys inferred specs on this pair. `None` unless
    /// compiled via [`Patch::compile_hashed`] — hashing both units costs
    /// real time per patch, so uncached runs skip it.
    pub pre_unit_hash: Option<seal_store::ContentHash>,
    /// Semantic content hash of the post-patch translation unit (see
    /// [`CompiledPatch::pre_unit_hash`]).
    pub post_unit_hash: Option<seal_store::ContentHash>,
}

/// Function-level change detection by comparing normalized pretty-printed
/// bodies — the structural analogue of a textual diff hunks-to-functions
/// mapping. The two units come from two compilations with their own name
/// tables, so functions are matched and compared by resolved text.
fn changed_functions(
    pre: &seal_kir::TranslationUnit,
    post: &seal_kir::TranslationUnit,
) -> BTreeSet<String> {
    let mut changed = BTreeSet::new();
    let render = |tu: &seal_kir::TranslationUnit, f: &seal_kir::ast::Function| {
        let mut s = String::new();
        pretty::print_function(&mut s, &tu.names, f);
        s
    };
    for f in &pre.functions {
        let name = pre.name(f.name);
        match post.function(name) {
            None => {
                changed.insert(name.to_string());
            }
            Some(g) => {
                if render(pre, f) != render(post, g) {
                    changed.insert(name.to_string());
                }
            }
        }
    }
    for g in &post.functions {
        let name = post.name(g.name);
        if pre.function(name).is_none() {
            changed.insert(name.to_string());
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_changed_function() {
        let p = Patch::new(
            "p1",
            "int f(int x) { return x; }\nint g(void) { return 1; }",
            "int f(int x) { return x + 1; }\nint g(void) { return 1; }",
        );
        let c = p.compile().unwrap();
        assert_eq!(c.changed.iter().collect::<Vec<_>>(), vec!["f"]);
    }

    #[test]
    fn detects_added_and_removed_functions() {
        let p = Patch::new(
            "p2",
            "int old_helper(void) { return 0; }\nint f(void) { return old_helper(); }",
            "int new_helper(void) { return 0; }\nint f(void) { return new_helper(); }",
        );
        let c = p.compile().unwrap();
        assert!(c.changed.contains("old_helper"));
        assert!(c.changed.contains("new_helper"));
        assert!(c.changed.contains("f"));
    }

    #[test]
    fn line_shifts_alone_are_not_changes() {
        let p = Patch::new(
            "p3",
            "int f(int x) { return x; }",
            "\n\n\nint f(int x)\n{\n    return x;\n}",
        );
        let c = p.compile().unwrap();
        assert!(c.changed.is_empty());
    }

    #[test]
    fn compile_error_propagates() {
        let p = Patch::new(
            "p4",
            "int f(void) { return unknown_var; }",
            "int f(void) { return 0; }",
        );
        assert!(p.compile().is_err());
    }
}
