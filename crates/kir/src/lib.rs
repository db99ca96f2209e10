//! `seal-kir` — the Kernel Intermediate Representation frontend.
//!
//! SEAL's prototype consumes LLVM bitcode compiled from the Linux tree. This
//! crate is the offline substitute: a small C-subset language ("KIR") with a
//! hand-written lexer, recursive-descent parser, and type checker. The subset
//! is chosen to express the kernel idioms the paper's analyses depend on:
//!
//! * `struct` definitions with function-pointer fields (`struct vb2_ops`),
//! * designated initializers binding implementations to interfaces
//!   (`.buf_prepare = buffer_prepare`),
//! * pointers, arrays, field projection (`.` / `->`), address-of,
//! * error-code returns (`return -ENOMEM;`), `#define`-style constants,
//! * `if`/`while`/`for`/`switch` control flow and direct/indirect calls.
//!
//! Every AST node carries a [`span::Span`] so downstream stages (PDG nodes,
//! bug reports) can cite line numbers exactly as the paper's reports do.

pub mod ast;
pub mod diag;
pub mod hash;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod typeck;
pub mod types;

pub use ast::TranslationUnit;
pub use diag::{Diagnostic, KirError};
pub use span::Span;

use std::collections::HashSet;

/// Parses and type-checks a KIR source string into a translation unit.
///
/// This is the crate's main entry point; `file` is only used to label
/// diagnostics.
///
/// # Examples
///
/// ```
/// let tu = seal_kir::compile("int f(int x) { return x + 1; }", "demo.c").unwrap();
/// assert_eq!(tu.functions.len(), 1);
/// ```
pub fn compile(source: &str, file: &str) -> Result<TranslationUnit, KirError> {
    let tokens = lexer::lex(source, file)?;
    let mut tu = parser::parse(tokens, file)?;
    typeck::check(&mut tu)?;
    Ok(tu)
}

/// Parses a KIR source string without running the type checker.
///
/// Useful for tooling that wants the raw AST (e.g. textual diffing of patch
/// versions) and for tests of the parser itself.
pub fn parse_only(source: &str, file: &str) -> Result<TranslationUnit, KirError> {
    let tokens = lexer::lex(source, file)?;
    parser::parse(tokens, file)
}

/// Compiles several source files into one linked translation unit — the
/// analogue of the paper's step of linking per-file bitcode into a single
/// module (§7). Struct definitions may repeat across files when identical
/// (shared headers); duplicate *function* definitions are an error.
pub fn compile_many(files: &[(&str, &str)]) -> Result<TranslationUnit, KirError> {
    let mut merged = TranslationUnit::default();
    let mut labels = Vec::new();
    // Names seen so far, one set per namespace, so each check is a hash
    // probe rather than a scan of everything merged before it.
    let mut functions: HashSet<String> = HashSet::new();
    let mut decls: HashSet<String> = HashSet::new();
    let mut globals: HashSet<String> = HashSet::new();
    for (file, source) in files {
        labels.push(*file);
        let tokens = lexer::lex(source, file)?;
        let tu = parser::parse(tokens, file)?;
        // Structs: identical re-definitions are fine; conflicting ones are
        // a link error.
        for def in tu.structs.iter() {
            if let Some(prev) = merged.structs.get(&def.name) {
                if prev != def {
                    return Err(KirError::single(
                        diag::Stage::Type,
                        format!("conflicting definitions of struct `{}`", def.name),
                        Span::DUMMY,
                        file,
                    ));
                }
            }
            merged.structs.insert(def.clone());
        }
        for f in tu.functions {
            if !functions.insert(f.name.clone()) {
                return Err(KirError::single(
                    diag::Stage::Type,
                    format!("duplicate definition of function `{}`", f.name),
                    f.span,
                    file,
                ));
            }
            merged.functions.push(f);
        }
        for d in tu.decls {
            if decls.insert(d.name.clone()) {
                merged.decls.push(d);
            }
        }
        for g in tu.globals {
            if !globals.insert(g.name.clone()) {
                return Err(KirError::single(
                    diag::Stage::Type,
                    format!("duplicate definition of global `{}`", g.name),
                    g.span,
                    file,
                ));
            }
            merged.globals.push(g);
        }
        merged.enums.extend(tu.enums);
        merged.consts.extend(tu.consts);
    }
    merged.file = labels.join("+");
    typeck::check(&mut merged)?;
    Ok(merged)
}
