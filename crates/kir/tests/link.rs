//! Tests for multi-file linking (`compile_many`) and for how the frontend
//! resolves top-level names: the link checks, the checker's implicit
//! declarations, and what lowering makes of the merged names.

use seal_kir::diag::{Diagnostic, Stage};
use seal_kir::{compile, compile_many, parse_only, Span};

const HEADER: &str = "
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
";

#[test]
fn links_two_driver_files_sharing_a_header() {
    let a = format!(
        "{HEADER}int cx_prepare(struct riscmem *r) {{\n\
         r->cpu = (int *)dma_alloc_coherent(64);\n\
         if (r->cpu == NULL) return -12;\n\
         return 0;\n}}\n\
         struct vb2_ops cx_q = {{ .buf_prepare = cx_prepare, }};"
    );
    let b = format!(
        "{HEADER}int tw_prepare(struct riscmem *r) {{ return cx_prepare(r); }}\n\
         struct vb2_ops tw_q = {{ .buf_prepare = tw_prepare, }};"
    );
    let tu = compile_many(&[("cx.c", a.as_str()), ("tw.c", b.as_str())]).unwrap();
    assert!(tu.function("cx_prepare").is_some());
    assert!(tu.function("tw_prepare").is_some());
    assert_eq!(tu.file, "cx.c+tw.c");
    // The merged module sees both implementations of the interface.
    let module = seal_ir::lower(&tu);
    let iface = seal_ir::InterfaceId::new("vb2_ops", "buf_prepare");
    assert_eq!(module.implementations(&iface).len(), 2);
}

#[test]
fn cross_file_call_resolves_after_link() {
    // File B calls a function only defined in file A: must type-check as a
    // real call (not an implicit API) after linking.
    let a = "int shared_helper(int x) { return x + 1; }";
    let b = "int user(int x) { return shared_helper(x); }";
    let tu = compile_many(&[("a.c", a), ("b.c", b)]).unwrap();
    // shared_helper is a definition, not an implicit decl.
    assert!(tu.decl("shared_helper").is_none());
    let module = seal_ir::lower(&tu);
    assert!(!module.is_api("shared_helper"));
}

/// The one diagnostic of a failed link.
fn link_error(files: &[(&str, &str)]) -> Diagnostic {
    let err = compile_many(files).unwrap_err();
    assert_eq!(err.diagnostics.len(), 1, "{err:?}");
    err.diagnostics[0].clone()
}

/// The error names the second definition. The first file to define a name
/// wins wherever the clash sits, and a definition repeated within one file
/// fails the same way.
#[test]
fn duplicate_function_definition_is_a_link_error() {
    let a = "int f(void) { return 1; }\nint g(void) { return 0; }";
    let b = "int h(void) { return 3; }\n\n  int f(void) { return 2; }";
    let second = parse_only(b, "b.c").unwrap().functions[1].span;
    assert_eq!(second, Span { line: 3, col: 7 });
    assert_eq!(
        link_error(&[("a.c", a), ("b.c", b)]),
        Diagnostic {
            stage: Stage::Type,
            message: "duplicate definition of function `f`".into(),
            span: second,
            file: "b.c".into(),
        }
    );
    let c = "int f(void) { return 4; }";
    let d = link_error(&[("a.c", a), ("c.c", c), ("b.c", b)]);
    assert_eq!((d.file.as_str(), d.span), ("c.c", Span { line: 1, col: 5 }));
    let twice = "int f(void) { return 1; }\nint f(void) { return 2; }";
    let d = link_error(&[("a.c", twice)]);
    assert_eq!(d.message, "duplicate definition of function `f`");
    assert_eq!((d.file.as_str(), d.span.line), ("a.c", 2));
}

#[test]
fn conflicting_struct_definitions_are_a_link_error() {
    let a = "struct s { int x; };";
    let b = "struct s { long y; };";
    let err = compile_many(&[("a.c", a), ("b.c", b)]).unwrap_err();
    assert!(err.first_message().contains("conflicting definitions"));
}

/// The error names the second definition; distinct globals link in file
/// order.
#[test]
fn duplicate_global_is_a_link_error() {
    let a = "int shared_counter;\nint other;";
    let b = "int mine;\nint shared_counter = 3;";
    let d = link_error(&[("a.c", a), ("b.c", b)]);
    assert_eq!(d.stage, Stage::Type);
    assert_eq!(d.message, "duplicate definition of global `shared_counter`");
    assert_eq!((d.file.as_str(), d.span.line), ("b.c", 2));
    let c = "int theirs;";
    let tu = compile_many(&[("a.c", a), ("c.c", c)]).unwrap();
    let names: Vec<&str> = tu.globals.iter().map(|g| tu.name(g.name)).collect();
    assert_eq!(names, ["shared_counter", "other", "theirs"]);
}

#[test]
fn a_repeated_extern_declaration_keeps_the_first() {
    let a = "int api(int x);\nvoid *other_api(unsigned long n);";
    let b = "\nint api(int x, int y);\nint user(int v) { return api(v); }";
    let c = "int api(int x, int y, int z);\nint more(void);";
    let tu = compile_many(&[("a.c", a), ("b.c", b), ("c.c", c)]).unwrap();
    let decls: Vec<(&str, usize, u32)> = tu
        .decls
        .iter()
        .map(|d| (tu.name(d.name), d.params.len(), d.span.line))
        .collect();
    assert_eq!(decls, [("api", 1, 1), ("other_api", 1, 2), ("more", 0, 2)]);
}

#[test]
fn implicit_declarations_are_added_once_and_only_for_unknown_names() {
    let src = "int api(int x);\n\
               int helper(int x) { return x; }\n\
               int f(int x, int (*cb)(int y)) {\n\
                 kzalloc(8);\n\
                 api(x);\n\
                 helper(x);\n\
                 cb(x);\n\
                 kzalloc(16);\n\
                 return undeclared(x);\n\
               }";
    let tu = compile(src, "t.c").unwrap();
    let decls: Vec<(&str, u32)> = tu
        .decls
        .iter()
        .map(|d| (tu.name(d.name), d.span.line))
        .collect();
    // `api` is declared, `helper` defined and `cb` a parameter: none gets
    // an implicit prototype. `kzalloc` gets one, at its first call.
    assert_eq!(decls, [("api", 1), ("kzalloc", 4), ("undeclared", 9)]);
    let k = &tu.decls[1];
    assert!(k.variadic && k.params.is_empty());
    assert_eq!(k.ret, seal_kir::types::Type::Int);
}

#[test]
fn linked_names_decide_what_lowering_calls_an_api() {
    // `b.c` calls `shared` before any file declares it, and `a.c` defines
    // it: after the link it is a function, not an API. `kmalloc` is only
    // ever called, so it is an implicit API; `api` is declared in one file
    // and called in the other.
    let a = "int api(int x);\nint shared(int x) { return api(x); }";
    let b = "int user(int x) { kmalloc(4); return shared(x) + api(x); }";
    let tu = compile_many(&[("b.c", b), ("a.c", a)]).unwrap();
    let decls: Vec<&str> = tu.decls.iter().map(|d| tu.name(d.name)).collect();
    assert_eq!(decls, ["api", "kmalloc"]);
    let module = seal_ir::lower(&tu);
    let apis: Vec<&str> = module.apis.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(apis, ["api", "kmalloc"]);
    assert!(!module.is_api("shared"));
}

#[test]
fn identical_headers_do_not_conflict() {
    let a = format!("{HEADER}int f(struct riscmem *r) {{ return 0; }}");
    let b = format!("{HEADER}int g(struct riscmem *r) {{ return 1; }}");
    assert!(compile_many(&[("a.c", a.as_str()), ("b.c", b.as_str())]).is_ok());
}

#[test]
fn single_file_matches_compile() {
    let src = "int f(int x) { return x; }";
    let one = seal_kir::compile(src, "x.c").unwrap();
    let many = compile_many(&[("x.c", src)]).unwrap();
    assert_eq!(one.functions.len(), many.functions.len());
}
