//! Seeded property tests for the KIR frontend: generated programs compile,
//! and pretty-printing is a fixpoint (print ∘ parse ∘ print = print).
//! Driven by the in-tree PRNG so the suite runs fully offline.
//!
//! Every compilation has its own name table, so comparisons across two
//! compilations go through rendered text, never through name ids.

use seal_kir::pretty::print_unit;
use seal_runtime::rng::Rng;

const CASES: usize = 64;

/// Integer literal in a small range, parenthesized when negative.
fn lit(rng: &mut Rng) -> String {
    let v = rng.gen_range(-64i64..64);
    if v < 0 {
        format!("({v})")
    } else {
        v.to_string()
    }
}

/// Expressions over declared scalars `a`, `b`, `c` and pointer `p`.
fn expr(rng: &mut Rng, depth: u32) -> String {
    fn leaf(rng: &mut Rng) -> String {
        match rng.gen_range(0..6usize) {
            0 => lit(rng),
            1 => "a".into(),
            2 => "b".into(),
            3 => "c".into(),
            4 => "*p".into(),
            _ => "s->len".into(),
        }
    }
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..5usize) {
        0 => leaf(rng),
        1 => {
            let op = ["+", "-", "*"][rng.gen_range(0..3usize)];
            format!("({} {op} {})", expr(rng, depth - 1), expr(rng, depth - 1))
        }
        2 => {
            let op = ["==", "<", ">="][rng.gen_range(0..3usize)];
            format!("({} {op} {})", expr(rng, depth - 1), expr(rng, depth - 1))
        }
        3 => format!("(-{})", expr(rng, depth - 1)),
        _ => format!("(!{})", expr(rng, depth - 1)),
    }
}

/// Statements (assignments, declarations, conditionals, loops, returns).
fn stmt(rng: &mut Rng, depth: u32) -> String {
    fn base(rng: &mut Rng) -> String {
        match rng.gen_range(0..3usize) {
            0 => {
                let l = ["a", "b", "c"][rng.gen_range(0..3usize)];
                format!("{l} = {};", expr(rng, 2))
            }
            1 => format!("int xv{} = {};", rng.gen_range(0..12u32), expr(rng, 1)),
            _ => format!("return {};", expr(rng, 2)),
        }
    }
    if depth == 0 {
        return base(rng);
    }
    let body = |rng: &mut Rng, depth: u32| {
        let n = rng.gen_range(1..3usize);
        (0..n)
            .map(|_| stmt(rng, depth - 1))
            .collect::<Vec<_>>()
            .join("\n        ")
    };
    match rng.gen_range(0..5usize) {
        0 => base(rng),
        1 => format!("if ({}) {{ {} }}", expr(rng, 1), body(rng, depth)),
        2 => format!(
            "if ({}) {{ {} }} else {{ {} }}",
            expr(rng, 1),
            body(rng, depth),
            body(rng, depth)
        ),
        3 => format!("while ({}) {{ break; {} }}", expr(rng, 1), body(rng, depth)),
        _ => format!("for (c = 0; c < 4; c++) {{ {} }}", body(rng, depth)),
    }
}

/// A full translation unit with a struct, an API decl, and one function.
fn program(rng: &mut Rng) -> String {
    let n = rng.gen_range(1..5usize);
    let stmts: Vec<String> = (0..n).map(|_| stmt(rng, 2)).collect();
    format!(
        "struct sdata {{ int len; int cap; }};\n\
         int helper_api(int x);\n\
         int generated(int a, int b, int *p, struct sdata *s) {{\n\
             int c = 0;\n\
             {}\n\
             return a + b + c;\n\
         }}",
        stmts.join("\n    ")
    )
}

fn ascii_fuzz(rng: &mut Rng, max_len: usize) -> String {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen_range(32u8..127) as char).collect()
}

/// Non-ASCII characters of one to four UTF-8 bytes.
const WIDE: [char; 6] = ['é', 'ß', 'Ω', '€', '中', '😀'];

/// Printable ASCII salted with multi-byte characters and newlines, so a
/// cursor that slices the source mid-character would panic.
fn utf8_fuzz(rng: &mut Rng, max_len: usize) -> String {
    let n = rng.gen_range(0..max_len);
    (0..n)
        .map(|_| match rng.gen_range(0..8usize) {
            0 => WIDE[rng.gen_range(0..WIDE.len())],
            1 => '\n',
            _ => rng.gen_range(32u8..127) as char,
        })
        .collect()
}

/// A string literal of ASCII and non-ASCII text, with escapes.
fn wide_literal(rng: &mut Rng) -> String {
    let n = rng.gen_range(1..8usize);
    (0..n)
        .map(|_| match rng.gen_range(0..6usize) {
            0 | 1 => WIDE[rng.gen_range(0..WIDE.len())].to_string(),
            2 => ["\\n", "\\t", "\\\"", "\\\\"][rng.gen_range(0..4usize)].to_string(),
            _ => (rng.gen_range(b'a'..=b'z') as char).to_string(),
        })
        .collect()
}

/// Every generated program compiles (parser + type checker accept the
/// grammar they claim to support).
#[test]
fn generated_programs_compile() {
    let mut rng = Rng::seed_from_u64(0x1C_0001);
    for _ in 0..CASES {
        let src = program(&mut rng);
        let result = seal_kir::compile(&src, "gen.c");
        assert!(result.is_ok(), "failed on:\n{src}\n{:?}", result.err());
    }
}

/// Pretty-printing reaches a fixpoint after one round trip.
#[test]
fn pretty_print_is_fixpoint() {
    let mut rng = Rng::seed_from_u64(0x1C_0002);
    for _ in 0..CASES {
        let src = program(&mut rng);
        let tu1 = seal_kir::compile(&src, "gen.c").unwrap();
        let printed1 = print_unit(&tu1);
        // The printer omits struct definitions (kept in the registry), so
        // re-prepend them for the re-parse.
        let src2 = format!("struct sdata {{ int len; int cap; }};\n{printed1}");
        let tu2 = seal_kir::compile(&src2, "gen2.c")
            .unwrap_or_else(|e| panic!("reprint does not compile:\n{src2}\n{e}"));
        let printed2 = print_unit(&tu2);
        assert_eq!(printed1, printed2, "printing not a fixpoint for:\n{src}");
    }
}

/// Lowering generated programs never panics and produces a single function
/// with the declared params.
#[test]
fn lowering_never_panics() {
    let mut rng = Rng::seed_from_u64(0x1C_0003);
    for _ in 0..CASES {
        let src = program(&mut rng);
        let tu = seal_kir::compile(&src, "gen.c").unwrap();
        let module = seal_ir::lower(&tu);
        let f = module
            .function("generated")
            .expect("function survives lowering");
        assert_eq!(f.param_count, 4);
        // Every block ends in a real terminator.
        for b in &f.blocks {
            assert!(!matches!(b.terminator, seal_ir::Terminator::Unreachable));
        }
    }
}

/// The lexer never panics on arbitrary ASCII input (errors are Ok), nor
/// on ASCII mixed with multi-byte UTF-8.
#[test]
fn lexer_total_on_ascii() {
    let mut rng = Rng::seed_from_u64(0x1C_0004);
    for _ in 0..CASES {
        let src = ascii_fuzz(&mut rng, 200);
        let _ = seal_kir::lexer::lex(&src, "fuzz.c", &mut seal_kir::NameTable::new());
        let src = utf8_fuzz(&mut rng, 200);
        let _ = seal_kir::lexer::lex(&src, "fuzz.c", &mut seal_kir::NameTable::new());
    }
}

/// The full frontend never panics on arbitrary ASCII input, nor on ASCII
/// mixed with multi-byte UTF-8.
#[test]
fn frontend_total_on_ascii() {
    let mut rng = Rng::seed_from_u64(0x1C_0005);
    for _ in 0..CASES {
        let src = ascii_fuzz(&mut rng, 200);
        let _ = seal_kir::compile(&src, "fuzz.c");
        let src = utf8_fuzz(&mut rng, 200);
        let _ = seal_kir::compile(&src, "fuzz.c");
    }
}

/// String literals with non-ASCII text survive lexing byte for byte, and
/// pretty-printing them is a fixpoint.
#[test]
fn pretty_print_is_fixpoint_on_utf8_literals() {
    let mut rng = Rng::seed_from_u64(0x1C_0006);
    for _ in 0..CASES {
        let (a, b) = (wide_literal(&mut rng), wide_literal(&mut rng));
        let src = format!(
            "int puts_api(char *s);\n\
             char *g = \"{a}\";\n\
             int f(void) {{ char *s = \"{b}\"; return puts_api(s); }}"
        );
        let tu1 = seal_kir::compile(&src, "wide.c").unwrap();
        let printed1 = print_unit(&tu1);
        for lit in [&a, &b] {
            assert!(
                printed1.contains(lit.as_str()),
                "{lit} lost in:\n{printed1}"
            );
        }
        let tu2 = seal_kir::compile(&printed1, "wide2.c")
            .unwrap_or_else(|e| panic!("reprint does not compile:\n{printed1}\n{e}"));
        assert_eq!(
            printed1,
            print_unit(&tu2),
            "printing not a fixpoint for:\n{src}"
        );
    }
}
