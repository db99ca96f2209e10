//! Pretty-printer: renders AST back to KIR source.
//!
//! Used by the corpus generator to materialize pre-/post-patch source pairs
//! and by bug reports to quote code. Output re-parses to an equivalent AST
//! (round-trip property tested below).
//!
//! Names print as their text in the unit's [`NameTable`], so a rendering
//! (and every hash over it) does not depend on the ids a compilation
//! happened to assign.

use crate::ast::*;
use crate::names::NameTable;
use crate::types::{FuncSig, Type};
use std::fmt::Write;

/// Renders a full translation unit.
pub fn print_unit(tu: &TranslationUnit) -> String {
    let names = &tu.names;
    let mut out = String::new();
    for e in &tu.enums {
        print_enum(&mut out, names, e);
    }
    // Struct definitions are stored only in the registry; callers that need
    // them rendered use `print_struct` with the original registry order.
    for d in &tu.decls {
        print_decl(&mut out, names, d);
    }
    for g in &tu.globals {
        print_global(&mut out, names, g);
    }
    for f in &tu.functions {
        print_function(&mut out, names, f);
    }
    out
}

/// Renders one struct definition.
pub fn print_struct(out: &mut String, def: &crate::types::StructDef) {
    let kw = if def.is_union { "union" } else { "struct" };
    let _ = writeln!(out, "{kw} {} {{", def.name);
    for f in &def.fields {
        let _ = writeln!(out, "    {};", declarator(&f.ty, &f.name));
    }
    let _ = writeln!(out, "}};");
}

pub(crate) fn print_enum(out: &mut String, names: &NameTable, e: &EnumDef) {
    let _ = write!(out, "enum");
    if let Some(n) = e.name {
        let _ = write!(out, " {}", names.text(n));
    }
    let _ = writeln!(out, " {{");
    for &(name, value) in &e.variants {
        let _ = writeln!(out, "    {} = {value},", names.text(name));
    }
    let _ = writeln!(out, "}};");
}

pub(crate) fn print_decl(out: &mut String, names: &NameTable, d: &FuncDecl) {
    let _ = write!(out, "{} {}(", type_str(&d.ret), names.text(d.name));
    print_params(out, names, &d.params, d.variadic);
    let _ = writeln!(out, ");");
}

fn print_params(out: &mut String, names: &NameTable, params: &[Param], variadic: bool) {
    if params.is_empty() && !variadic {
        let _ = write!(out, "void");
        return;
    }
    for (i, p) in params.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ", ");
        }
        let _ = write!(out, "{}", declarator(&p.ty, names.text(p.name)));
    }
    if variadic {
        if !params.is_empty() {
            let _ = write!(out, ", ");
        }
        let _ = write!(out, "...");
    }
}

pub(crate) fn print_global(out: &mut String, names: &NameTable, g: &GlobalDef) {
    if g.is_static {
        let _ = write!(out, "static ");
    }
    if g.is_const {
        let _ = write!(out, "const ");
    }
    let _ = write!(out, "{}", declarator(&g.ty, names.text(g.name)));
    if let Some(init) = &g.init {
        let _ = write!(out, " = ");
        print_initializer(out, names, init);
    }
    let _ = writeln!(out, ";");
}

fn print_initializer(out: &mut String, names: &NameTable, init: &Initializer) {
    match init {
        Initializer::Expr(e) => {
            let _ = write!(out, "{}", expr_str(names, e));
        }
        Initializer::Designated(pairs) => {
            let _ = write!(out, "{{ ");
            for (i, (field, sub)) in pairs.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, ".{} = ", names.text(*field));
                print_initializer(out, names, sub);
            }
            let _ = write!(out, " }}");
        }
        Initializer::List(items) => {
            let _ = write!(out, "{{ ");
            for (i, sub) in items.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                print_initializer(out, names, sub);
            }
            let _ = write!(out, " }}");
        }
    }
}

/// Renders one function definition; `names` is its unit's table.
pub fn print_function(out: &mut String, names: &NameTable, f: &Function) {
    if f.is_static {
        let _ = write!(out, "static ");
    }
    let _ = write!(out, "{} {}(", type_str(&f.ret), names.text(f.name));
    print_params(out, names, &f.params, false);
    let _ = writeln!(out, ")");
    print_block(out, names, &f.body, 0);
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_block(out: &mut String, names: &NameTable, b: &Block, level: usize) {
    indent(out, level);
    out.push_str("{\n");
    for s in &b.stmts {
        print_stmt(out, names, s, level + 1);
    }
    indent(out, level);
    out.push_str("}\n");
}

fn print_stmt(out: &mut String, names: &NameTable, s: &Stmt, level: usize) {
    match &s.kind {
        StmtKind::Decl { name, ty, init } => {
            indent(out, level);
            let _ = write!(out, "{}", declarator(ty, names.text(*name)));
            if let Some(e) = init {
                let _ = write!(out, " = {}", expr_str(names, e));
            }
            out.push_str(";\n");
        }
        StmtKind::Expr(e) => {
            indent(out, level);
            let _ = writeln!(out, "{};", expr_str(names, e));
        }
        StmtKind::Assign { lhs, rhs } => {
            indent(out, level);
            let _ = writeln!(out, "{} = {};", expr_str(names, lhs), expr_str(names, rhs));
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            indent(out, level);
            let _ = writeln!(out, "if ({})", expr_str(names, cond));
            print_block(out, names, then_blk, level);
            if let Some(e) = else_blk {
                indent(out, level);
                out.push_str("else\n");
                print_block(out, names, e, level);
            }
        }
        StmtKind::While { cond, body } => {
            indent(out, level);
            let _ = writeln!(out, "while ({})", expr_str(names, cond));
            print_block(out, names, body, level);
        }
        StmtKind::DoWhile { body, cond } => {
            indent(out, level);
            out.push_str("do\n");
            print_block(out, names, body, level);
            indent(out, level);
            let _ = writeln!(out, "while ({});", expr_str(names, cond));
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            indent(out, level);
            out.push_str("for (");
            if let Some(i) = init {
                let _ = write!(out, "{}", stmt_inline(names, i));
            }
            out.push_str("; ");
            if let Some(c) = cond {
                let _ = write!(out, "{}", expr_str(names, c));
            }
            out.push_str("; ");
            if let Some(st) = step {
                let _ = write!(out, "{}", stmt_inline(names, st));
            }
            out.push_str(")\n");
            print_block(out, names, body, level);
        }
        StmtKind::Switch { scrutinee, cases } => {
            indent(out, level);
            let _ = writeln!(out, "switch ({}) {{", expr_str(names, scrutinee));
            for case in cases {
                for l in &case.labels {
                    indent(out, level);
                    let _ = writeln!(out, "case {l}:");
                }
                if case.is_default {
                    indent(out, level);
                    out.push_str("default:\n");
                }
                for st in &case.body.stmts {
                    print_stmt(out, names, st, level + 1);
                }
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Break => {
            indent(out, level);
            out.push_str("break;\n");
        }
        StmtKind::Continue => {
            indent(out, level);
            out.push_str("continue;\n");
        }
        StmtKind::Goto(label) => {
            indent(out, level);
            let _ = writeln!(out, "goto {};", names.text(*label));
        }
        StmtKind::Label(label) => {
            let _ = writeln!(out, "{}:", names.text(*label));
        }
        StmtKind::Return(v) => {
            indent(out, level);
            match v {
                Some(e) => {
                    let _ = writeln!(out, "return {};", expr_str(names, e));
                }
                None => out.push_str("return;\n"),
            }
        }
        StmtKind::Block(b) => print_block(out, names, b, level),
    }
}

/// Renders a statement without trailing `;` (for `for` clauses).
fn stmt_inline(names: &NameTable, s: &Stmt) -> String {
    match &s.kind {
        StmtKind::Decl { name, ty, init } => {
            let mut out = declarator(ty, names.text(*name));
            if let Some(e) = init {
                let _ = write!(out, " = {}", expr_str(names, e));
            }
            out
        }
        StmtKind::Assign { lhs, rhs } => {
            format!("{} = {}", expr_str(names, lhs), expr_str(names, rhs))
        }
        StmtKind::Expr(e) => expr_str(names, e),
        _ => String::new(),
    }
}

/// Renders `ty name`, handling function-pointer and array declarators.
pub fn declarator(ty: &Type, name: &str) -> String {
    match ty {
        Type::Ptr(inner) => {
            if let Type::Func(sig) = inner.as_ref() {
                return fn_ptr_declarator(sig, name);
            }
            format!("{} *{name}", type_str(inner))
        }
        Type::Array(elem, n) => format!("{} {name}[{n}]", type_str(elem)),
        other => format!("{} {name}", type_str(other)),
    }
}

fn fn_ptr_declarator(sig: &FuncSig, name: &str) -> String {
    let mut out = format!("{} (*{name})(", type_str(&sig.ret));
    if sig.params.is_empty() {
        out.push_str("void");
    }
    for (i, p) in sig.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&declarator(p, ""));
    }
    out.push(')');
    out
}

/// Renders a type in prefix position (without a declarator name).
pub fn type_str(ty: &Type) -> String {
    match ty {
        Type::Void => "void".into(),
        Type::Int => "int".into(),
        Type::Long => "long".into(),
        Type::UInt => "unsigned".into(),
        Type::ULong => "unsigned long".into(),
        Type::Char => "char".into(),
        Type::Bool => "bool".into(),
        Type::Ptr(inner) => format!("{} *", type_str(inner)),
        Type::Array(elem, n) => format!("{}[{n}]", type_str(elem)),
        Type::Struct(n) => format!("struct {n}"),
        Type::Func(sig) => fn_ptr_declarator(sig, ""),
        Type::Error => "int".into(),
    }
}

/// Renders an expression with full parenthesization of compound operands;
/// `names` is its unit's table.
pub fn expr_str(names: &NameTable, e: &Expr) -> String {
    match &e.kind {
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::CharLit(v) => format!("{v}"),
        ExprKind::StrLit(s) => format!("{:?}", names.text(*s)),
        ExprKind::Null => "NULL".into(),
        ExprKind::Ident(n) => names.text(*n).to_string(),
        ExprKind::Unary(op, inner) => {
            let o = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Deref => "*",
                UnOp::Addr => "&",
            };
            format!("{o}{}", atom(names, inner))
        }
        ExprKind::Binary(op, l, r) => {
            format!("{} {} {}", atom(names, l), op.as_str(), atom(names, r))
        }
        ExprKind::Call { callee, args } => {
            let mut out = format!("{}(", atom_callee(names, callee));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&expr_str(names, a));
            }
            out.push(')');
            out
        }
        ExprKind::Member { base, field, arrow } => format!(
            "{}{}{}",
            atom(names, base),
            if *arrow { "->" } else { "." },
            names.text(*field)
        ),
        ExprKind::Index { base, index } => {
            format!("{}[{}]", atom(names, base), expr_str(names, index))
        }
        ExprKind::Cast { ty, expr } => format!("({}){}", type_str(ty), atom(names, expr)),
        ExprKind::Sizeof(ty) => format!("sizeof({})", type_str(ty)),
        ExprKind::Ternary {
            cond,
            then_e,
            else_e,
        } => format!(
            "{} ? {} : {}",
            atom(names, cond),
            atom(names, then_e),
            atom(names, else_e)
        ),
        ExprKind::AssignExpr { lhs, rhs } => {
            format!("({} = {})", expr_str(names, lhs), expr_str(names, rhs))
        }
    }
}

/// Parenthesizes compound subexpressions.
fn atom(names: &NameTable, e: &Expr) -> String {
    match &e.kind {
        ExprKind::IntLit(v) if *v < 0 => format!("({v})"),
        ExprKind::IntLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Null
        | ExprKind::Ident(_)
        | ExprKind::Call { .. }
        | ExprKind::Member { .. }
        | ExprKind::Index { .. }
        | ExprKind::Sizeof(_) => expr_str(names, e),
        _ => format!("({})", expr_str(names, e)),
    }
}

fn atom_callee(names: &NameTable, e: &Expr) -> String {
    match &e.kind {
        ExprKind::Ident(_) | ExprKind::Member { .. } => expr_str(names, e),
        _ => format!("({})", expr_str(names, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use std::sync::Arc;

    fn roundtrip(src: &str) {
        let tu = compile(src, "t.c").unwrap();
        let printed = print_unit(&tu);
        // Struct defs aren't replayed by print_unit; prepend originals.
        let again = compile(
            &format!("{src_structs}\n{printed}", src_structs = structs_of(src)),
            "t2.c",
        );
        assert!(
            again.is_ok(),
            "re-parse failed:\n{printed}\n{:?}",
            again.err()
        );
    }

    /// Extracts struct/union/enum definition lines from the source so
    /// round-trip tests can re-supply them.
    fn structs_of(src: &str) -> String {
        let mut out = String::new();
        let mut depth = 0;
        let mut capturing = false;
        for line in src.lines() {
            let t = line.trim_start();
            if depth == 0
                && ((t.starts_with("struct") || t.starts_with("union")) && t.contains('{'))
            {
                capturing = true;
            }
            if capturing {
                out.push_str(line);
                out.push('\n');
                depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
                if depth == 0 && line.contains('}') {
                    capturing = false;
                }
            }
        }
        out
    }

    #[test]
    fn roundtrips_fig3_patch_shape() {
        roundtrip(
            "#define ENOMEM 12\n\
             struct riscmem { int *cpu; };\n\
             void *dma_alloc_coherent(unsigned long size);\n\
             int vbibuffer(struct riscmem *risc) {\n\
               risc->cpu = dma_alloc_coherent(64);\n\
               if (risc->cpu == NULL) return -ENOMEM;\n\
               return 0;\n\
             }",
        );
    }

    #[test]
    fn roundtrips_control_flow_zoo() {
        roundtrip(
            "int f(int n) {\n\
               int acc = 0;\n\
               int i;\n\
               for (i = 0; i < n; i++) { acc += i; }\n\
               while (acc > 100) { acc /= 2; }\n\
               do { acc = acc - 1; } while (acc > 50);\n\
               switch (acc) { case 0: return 0; case 1: return 1; default: break; }\n\
               return acc > 0 ? acc : -acc;\n\
             }",
        );
    }

    #[test]
    fn roundtrips_designated_initializer() {
        roundtrip(
            "struct ops { int (*cb)(int x); };\n\
             int impl_cb(int x) { return x; }\n\
             struct ops table = { .cb = impl_cb, };",
        );
    }

    #[test]
    fn declarator_forms() {
        assert_eq!(declarator(&Type::Int, "x"), "int x");
        assert_eq!(
            declarator(&Type::Ptr(Arc::new(Type::Struct("dev".into()))), "d"),
            "struct dev *d"
        );
        assert_eq!(
            declarator(&Type::Array(Arc::new(Type::Char), 34), "block"),
            "char block[34]"
        );
        let fp = Type::Ptr(Arc::new(Type::Func(Arc::new(FuncSig {
            ret: Type::Int,
            params: vec![Type::Int],
            variadic: false,
        }))));
        assert_eq!(declarator(&fp, "cb"), "int (*cb)(int )");
    }

    #[test]
    fn negative_literal_parenthesized() {
        let tu = compile("int f(void) { return 0 - 12; }", "t.c").unwrap();
        let printed = print_unit(&tu);
        assert!(printed.contains("return 0 - 12;"));
    }
}
