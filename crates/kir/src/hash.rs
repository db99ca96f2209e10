//! Content hashes over the KIR AST — the *semantic* cache-key layer.
//!
//! The hashes here deliberately see code the way the analyses do, not the
//! way the file system does. They are computed over the pretty-printer's
//! canonical rendering, which contains no spans, no file names, and no
//! comments — so the same function body hashes identically whether its
//! file was renamed, its siblings reordered, or blank lines inserted above
//! it, while any edit the parser can see (an operator, a constant, a
//! declarator) produces a different digest.
//!
//! Domain-separation strings (`kir.fn.v2`, `kir.unit.v2`) version the key
//! derivation itself: changing what a hash covers must change every key,
//! or a new binary would happily read a stale cache. Version 2 renders
//! string literals as the UTF-8 text they spell; version 1 rendered each
//! byte of a non-ASCII literal as one Latin-1 character, so a v1 key for
//! `"é"` equals the key of a source that really says `"Ã©"`.

use crate::ast::{Function, TranslationUnit};
use crate::names::NameTable;
use crate::pretty;
use seal_store::{ContentHash, Hasher128};

/// Hashes one function definition (canonical rendering; span-free);
/// `names` is its unit's table.
pub fn function_hash(names: &NameTable, f: &Function) -> ContentHash {
    let mut out = String::new();
    pretty::print_function(&mut out, names, f);
    let mut h = Hasher128::new();
    h.update_str("kir.fn.v2");
    h.update_str(&out);
    h.finish()
}

/// Hashes a whole translation unit, independent of its file label and of
/// the order of sibling definitions within each category.
///
/// Each category (structs, enums, consts, declarations, globals,
/// functions) is rendered item-by-item, sorted, and absorbed with its own
/// framing tag, so moving a definition between categories can never
/// collide with reordering inside one.
pub fn unit_hash(tu: &TranslationUnit) -> ContentHash {
    let names = &tu.names;
    let mut h = Hasher128::new();
    h.update_str("kir.unit.v2");

    let mut absorb = |tag: &str, mut items: Vec<String>| {
        items.sort();
        h.update_str(tag);
        h.update_u64(items.len() as u64);
        for it in &items {
            h.update_str(it);
        }
    };

    absorb(
        "structs",
        tu.structs
            .iter()
            .map(|d| {
                let mut s = String::new();
                pretty::print_struct(&mut s, d);
                s
            })
            .collect(),
    );
    absorb(
        "enums",
        tu.enums
            .iter()
            .map(|e| {
                let mut s = String::new();
                pretty::print_enum(&mut s, names, e);
                s
            })
            .collect(),
    );
    absorb(
        "consts",
        tu.consts
            .iter()
            .map(|(k, v)| format!("{}={v}", names.text(k)))
            .collect(),
    );
    absorb(
        "decls",
        tu.decls
            .iter()
            .map(|d| {
                let mut s = String::new();
                pretty::print_decl(&mut s, names, d);
                s
            })
            .collect(),
    );
    absorb(
        "globals",
        tu.globals
            .iter()
            .map(|g| {
                let mut s = String::new();
                pretty::print_global(&mut s, names, g);
                s
            })
            .collect(),
    );
    absorb(
        "functions",
        tu.functions
            .iter()
            .map(|f| {
                let mut s = String::new();
                pretty::print_function(&mut s, names, f);
                s
            })
            .collect(),
    );
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const HELPER: &str = "int helper(int x) { return x + 1; }\n";
    const MAIN_FN: &str = "int entry(int x) { return helper(x) * 2; }\n";

    #[test]
    fn renamed_file_hashes_equal() {
        let a = compile(&format!("{HELPER}{MAIN_FN}"), "drivers/a.c").unwrap();
        let b = compile(&format!("{HELPER}{MAIN_FN}"), "fs/renamed.c").unwrap();
        assert_eq!(unit_hash(&a), unit_hash(&b));
        assert_eq!(
            function_hash(&a.names, a.function("entry").unwrap()),
            function_hash(&b.names, b.function("entry").unwrap())
        );
    }

    #[test]
    fn reordered_siblings_hash_equal() {
        let a = compile(&format!("{HELPER}{MAIN_FN}"), "t.c").unwrap();
        let b = compile(&format!("{MAIN_FN}{HELPER}"), "t.c").unwrap();
        assert_eq!(unit_hash(&a), unit_hash(&b));
        // The individual function digest is position-independent too.
        assert_eq!(
            function_hash(&a.names, a.function("helper").unwrap()),
            function_hash(&b.names, b.function("helper").unwrap())
        );
    }

    #[test]
    fn shifted_spans_hash_equal() {
        let a = compile(MAIN_FN, "t.c").unwrap();
        let b = compile(&format!("\n\n\n{MAIN_FN}"), "t.c").unwrap();
        assert_eq!(
            function_hash(&a.names, a.function("entry").unwrap()),
            function_hash(&b.names, b.function("entry").unwrap())
        );
    }

    #[test]
    fn semantic_edits_hash_different() {
        let base = compile(MAIN_FN, "t.c").unwrap();
        for edited in [
            "int entry(int x) { return helper(x) * 3; }\n", // constant
            "int entry(int x) { return helper(x) + 2; }\n", // operator
            "int entry(int y) { return helper(y) * 2; }\n", // param rename
            "long entry(int x) { return helper(x) * 2; }\n", // return type
        ] {
            let tu = crate::parse_only(edited, "t.c").unwrap();
            assert_ne!(
                function_hash(&base.names, base.function("entry").unwrap()),
                function_hash(&tu.names, tu.function("entry").unwrap()),
                "edit not reflected in hash: {edited}"
            );
        }
    }

    #[test]
    fn unit_hash_sees_non_function_edits() {
        let a = compile("int g = 1;\nint f(void) { return g; }", "t.c").unwrap();
        let b = compile("int g = 2;\nint f(void) { return g; }", "t.c").unwrap();
        assert_ne!(unit_hash(&a), unit_hash(&b));
        // ...while the function digest alone is unchanged.
        assert_eq!(
            function_hash(&a.names, a.function("f").unwrap()),
            function_hash(&b.names, b.function("f").unwrap())
        );
    }

    #[test]
    fn utf8_literals_hash_apart_from_their_latin1_reading() {
        let real = compile("char *s = \"é\";", "t.c").unwrap();
        let mojibake = compile("char *s = \"Ã©\";", "t.c").unwrap();
        assert!(pretty::print_unit(&real).contains("\"é\""));
        assert_ne!(unit_hash(&real), unit_hash(&mojibake));
    }

    #[test]
    fn category_framing_prevents_cross_category_collisions() {
        let a = compile("int decl_like(void);", "t.c").unwrap();
        let b = compile("int decl_like(void) { return 0; }", "t.c").unwrap();
        assert_ne!(unit_hash(&a), unit_hash(&b));
    }
}
