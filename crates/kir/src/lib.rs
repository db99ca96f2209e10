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
//!
//! Each compilation — one [`compile`], [`compile_segments`],
//! [`parse_only`] or [`compile_many`] call — interns its identifiers into
//! one [`names::NameTable`] that the resulting [`TranslationUnit`] owns.
//! The lexer slices each word out of the source, matches keywords on the
//! slice and interns the rest; from there on tokens, AST nodes, the
//! checker's scopes and the IR lowering's scopes carry `Copy`
//! [`names::Name`] ids. A name becomes text again only in a diagnostic, in
//! the pretty printer (and so in [`hash`]), and where the IR stores a
//! `String`.

pub mod ast;
pub mod diag;
pub mod hash;
pub mod lexer;
pub mod names;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod typeck;
pub mod types;

pub use ast::TranslationUnit;
pub use diag::{Diagnostic, KirError};
pub use lexer::Segment;
pub use names::{Name, NameTable};
pub use span::Span;

use names::NameMap;

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
    compile_segments(
        &[Segment {
            text: source,
            first_line: 1,
        }],
        file,
    )
}

/// [`compile`] of a source given as [`Segment`]s, each starting at its own
/// line: the result equals compiling one text that pads every segment with
/// newlines down to its line, without lexing the padding.
///
/// # Examples
///
/// ```
/// use seal_kir::Segment;
/// let tu = seal_kir::compile_segments(
///     &[
///         Segment { text: "#define N 4\n", first_line: 1 },
///         Segment { text: "int f(void) { return N; }", first_line: 90 },
///     ],
///     "demo.c",
/// )
/// .unwrap();
/// assert_eq!(tu.function("f").unwrap().span.line, 90);
/// ```
pub fn compile_segments(segments: &[Segment<'_>], file: &str) -> Result<TranslationUnit, KirError> {
    let mut names = NameTable::new();
    let tokens = lexer::lex_segments(segments, file, &mut names)?;
    let mut tu = parser::parse(tokens, &names, file)?;
    tu.names = names;
    typeck::check(&mut tu)?;
    Ok(tu)
}

/// Parses a KIR source string without running the type checker.
///
/// Useful for tooling that wants the raw AST (e.g. textual diffing of patch
/// versions) and for tests of the parser itself.
pub fn parse_only(source: &str, file: &str) -> Result<TranslationUnit, KirError> {
    let mut names = NameTable::new();
    let tokens = lexer::lex(source, file, &mut names)?;
    let mut tu = parser::parse(tokens, &names, file)?;
    tu.names = names;
    Ok(tu)
}

/// Compiles several source files into one linked translation unit — the
/// analogue of the paper's step of linking per-file bitcode into a single
/// module (§7). Struct definitions may repeat across files when identical
/// (shared headers); duplicate *function* definitions are an error. All
/// files intern into one name table, so a name means the same id in every
/// file.
pub fn compile_many(files: &[(&str, &str)]) -> Result<TranslationUnit, KirError> {
    let mut merged = TranslationUnit::default();
    let mut names = NameTable::new();
    let mut labels = Vec::new();
    // Names seen so far, one set per namespace, so each check is an
    // indexed probe rather than a scan of everything merged before it.
    let mut functions = NameMap::new();
    let mut decls = NameMap::new();
    let mut globals = NameMap::new();
    for (file, source) in files {
        labels.push(*file);
        let tokens = lexer::lex(source, file, &mut names)?;
        let tu = parser::parse(tokens, &names, file)?;
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
            if functions.insert(f.name, ()).is_some() {
                return Err(KirError::single(
                    diag::Stage::Type,
                    format!("duplicate definition of function `{}`", names.text(f.name)),
                    f.span,
                    file,
                ));
            }
            merged.functions.push(f);
        }
        for d in tu.decls {
            if decls.insert(d.name, ()).is_none() {
                merged.decls.push(d);
            }
        }
        for g in tu.globals {
            if globals.insert(g.name, ()).is_some() {
                return Err(KirError::single(
                    diag::Stage::Type,
                    format!("duplicate definition of global `{}`", names.text(g.name)),
                    g.span,
                    file,
                ));
            }
            merged.globals.push(g);
        }
        merged.enums.extend(tu.enums);
        merged.consts.extend(tu.consts.iter().map(|(n, &v)| (n, v)));
    }
    merged.file = labels.join("+");
    merged.names = names;
    typeck::check(&mut merged)?;
    Ok(merged)
}
