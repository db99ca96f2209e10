//! Pinned digests of what the KIR frontend hands to the rest of the
//! pipeline, over the seed-1 evaluation corpus. A frontend change meant to
//! be output-identical (a faster lexer, interned names, cheaper scopes) is
//! checked here against the output of the code before it, not only against
//! itself, as `pinned_hunt_reports` does for the reports.
//!
//! Three digests, so a failure says which surface moved:
//! - the store codec bytes of the lowered target and of every lowered
//!   patch version;
//! - every patch's pre and post [`seal::kir::hash::unit_hash`];
//! - the `Display` text of the [`seal::kir::KirError`] of a table of
//!   malformed inputs: lex, parse and type errors, and `compile_many` link
//!   errors, at assorted `line:col`.
//!
//! Update a digest only with a change that means to alter that surface,
//! and say why.

use seal::corpus::{generate, Corpus, CorpusConfig};
use seal_store::ContentHash;

/// Codec bytes of the lowered target and patch modules.
const CODEC_DIGEST: &str = "2fdedcf7c22bfe1c27dc5483d7b33c83";
/// Pre and post unit hashes of every patch, in patch order. Moved once,
/// from `a99cdb37aaf9d86fdb0fd6f21b08b3b8`, when the `kir.fn`/`kir.unit`
/// domain tags went from v1 to v2 (string literals hash as UTF-8 text);
/// the corpus is ASCII, so nothing else about these hashes changed.
const UNIT_HASH_DIGEST: &str = "dec3f8d932d5ac1f55e7074bd64a7334";
/// Error text of every input in [`MALFORMED`] and [`MALFORMED_LINKS`].
const DIAGNOSTICS_DIGEST: &str = "37b916f6ae416c17c30e0d150180c4aa";

fn corpus() -> Corpus {
    generate(&CorpusConfig {
        seed: 1,
        ..seal::scale::eval_base_config()
    })
}

fn digest(bytes: &[u8]) -> String {
    ContentHash::of(bytes).to_string()
}

#[test]
fn lowered_codec_bytes_are_pinned() {
    let corpus = corpus();
    let mut bytes = Vec::new();
    let single = seal::kir::compile(&corpus.target_source, "kernel.c").expect("target compiles");
    let linked = seal::kir::compile_many(&[("kernel.c", corpus.target_source.as_str())])
        .expect("target links");
    for tu in [&single, &linked] {
        let module = seal::ir::lower_checked(tu).expect("target lowers");
        bytes.extend(seal::ir::codec::encode_module(&module));
    }
    for patch in &corpus.patches {
        let compiled = patch.compile().expect("corpus patches compile");
        bytes.extend(seal::ir::codec::encode_module(&compiled.pre));
        bytes.extend(seal::ir::codec::encode_module(&compiled.post));
    }
    assert_eq!(digest(&bytes), CODEC_DIGEST, "lowered codec bytes moved");
}

#[test]
fn patch_unit_hashes_are_pinned() {
    let corpus = corpus();
    let mut text = String::new();
    for patch in &corpus.patches {
        let compiled = patch.compile_hashed().expect("corpus patches compile");
        let pre = compiled.pre_unit_hash.expect("hashed compile");
        let post = compiled.post_unit_hash.expect("hashed compile");
        text.push_str(&format!("{} {pre} {post}\n", patch.id));
    }
    assert_eq!(
        digest(text.as_bytes()),
        UNIT_HASH_DIGEST,
        "unit hashes moved"
    );
}

/// Single-file inputs that the frontend must reject, one per error path.
const MALFORMED: &[&str] = &[
    // lex
    "int f(void) {\n  return 1 @ 2;\n}",
    "int g;\n\n   /* never closed",
    "#include <linux/slab.h>\nint f(void) { return 0; }",
    "int f(void) {\n\tchar *s = \"abc\n\treturn 0;\n}",
    "int x = 0x;",
    "int f(void) { return '\\q'; }",
    "long big = 99999999999999999999;",
    "#define\nint x;",
    "#define LIMIT oops\n",
    // parse
    "int f(void) {\n    return 1\n}",
    "void f(void) { 1 = 2; }",
    "int f(int x) {\n  x = ;\n}",
    "int f(int a[q]) { return 0; }",
    "int f(void) {",
    "struct s { int a; }",
    "int f(void) { return \"x\" \"y\"; }",
    "int f(int a) { return a b; }",
    "int f(int x) {\n  switch (x) {\n  case y: return 1;\n  }\n  return 0;\n}",
    "int f(void) { do { } until (1); }",
    "enum e { A = B };",
    // type
    "int f(void) { return nope; }",
    "struct s { int a; };\nint f(struct s *p) {\n  return p->b;\n}",
    "int g(int a, int b);\nint f(void) { return g(1); }",
    "int f(void) {\n  goto nowhere;\n  return 0;\n}",
    "struct s { int a; };\nint f(int x) {\n  int *p = x;\n  struct s v = 3;\n  return *x;\n}",
    "void f(void) { return 3; }\nint g(void) { return; }",
    "int f(int x) { return x->y; }",
    "int f(int x) { return x(1); }",
];

/// Multi-file inputs that [`seal::kir::compile_many`] must reject.
const MALFORMED_LINKS: &[&[(&str, &str)]] = &[
    &[
        ("a.c", "int f(void) { return 0; }"),
        ("b.c", "\nint f(void) { return 1; }"),
    ],
    &[
        ("a.c", "struct s { int a; };"),
        ("b.c", "struct s { long a; };"),
    ],
    &[("a.c", "int g;"), ("b.c", "int x;\n  int g = 2;")],
    &[
        ("a.c", "int f(void) { return 0; }"),
        ("b.c", "int h(void) {\n  return $;\n}"),
    ],
    &[
        ("a.c", "int f(void) { return 0; }"),
        ("b.c", "int h(void) { return f() + missing; }"),
    ],
];

#[test]
fn diagnostics_are_pinned() {
    let mut text = String::new();
    for src in MALFORMED {
        let err = seal::kir::compile(src, "bad.c").expect_err(src);
        text.push_str(&format!("{err}\n"));
    }
    for files in MALFORMED_LINKS {
        let err = seal::kir::compile_many(files).expect_err("link must fail");
        text.push_str(&format!("{err}\n"));
    }
    assert_eq!(
        digest(text.as_bytes()),
        DIAGNOSTICS_DIGEST,
        "diagnostics moved:\n{text}"
    );
}
