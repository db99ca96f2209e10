//! Type checker and name resolver.
//!
//! Walks every function body, fills in [`Expr::ty`], folds enum constants to
//! integer literals, rewrites the `__sizeof` marker produced by the parser,
//! and validates field accesses, call shapes, and assignment compatibility
//! under the lenient kernel-C rules of [`Type::assignable_from`].
//!
//! Calls to functions with no visible declaration are accepted and an
//! implicit `int`-returning prototype is recorded — mirroring how the
//! paper's LLVM pipeline sees external kernel APIs as declarations only.
//!
//! Every name is resolved by id: globals, functions and constants sit in
//! [`NameMap`]s, locals in one [`Scopes`] reused across the unit's
//! functions, and a function's labels in a short list. Names turn into
//! text only inside diagnostics.

use crate::ast::*;
use crate::diag::{Diagnostic, KirError, Stage};
use crate::names::{Name, NameMap, Scopes};
use crate::span::Span;
use crate::types::{FuncSig, Type};
use std::sync::Arc;

/// Runs the checker over a parsed translation unit, mutating it in place.
pub fn check(tu: &mut TranslationUnit) -> Result<(), KirError> {
    let mut cx = Checker::new(tu);
    let mut functions = std::mem::take(&mut tu.functions);
    for f in &mut functions {
        cx.check_function(tu, f);
    }
    tu.functions = functions;
    // Register implicit declarations discovered during checking, unless
    // a declaration or definition of that name already exists.
    let mut known = NameMap::new();
    for name in tu.decls.iter().map(|d| d.name) {
        known.insert(name, ());
    }
    for name in tu.functions.iter().map(|f| f.name) {
        known.insert(name, ());
    }
    for decl in cx.implicit_decls {
        if known.insert(decl.name, ()).is_none() {
            tu.decls.push(decl);
        }
    }
    if cx.diagnostics.is_empty() {
        Ok(())
    } else {
        Err(KirError {
            diagnostics: cx.diagnostics,
        })
    }
}

struct Checker {
    file: String,
    /// The current function's labels.
    labels: Vec<Name>,
    globals: NameMap<Type>,
    /// Each function's pointer type, the type of its name in an
    /// expression. Types share their parts, so handing one out is cheap.
    funcs: NameMap<Type>,
    scopes: Scopes<Type>,
    /// The types of string literals and of `NULL`, built once.
    char_ptr: Type,
    void_ptr: Type,
    diagnostics: Vec<Diagnostic>,
    implicit_decls: Vec<FuncDecl>,
    current_ret: Type,
}

impl Checker {
    fn new(tu: &TranslationUnit) -> Self {
        let mut globals = NameMap::new();
        for g in &tu.globals {
            globals.insert(g.name, g.ty.clone());
        }
        let mut funcs = NameMap::new();
        for d in &tu.decls {
            funcs.insert(
                d.name,
                fn_ptr(FuncSig {
                    ret: d.ret.clone(),
                    params: d.params.iter().map(|p| p.ty.clone()).collect(),
                    variadic: d.variadic,
                }),
            );
        }
        for f in &tu.functions {
            funcs.insert(
                f.name,
                fn_ptr(FuncSig {
                    ret: f.ret.clone(),
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                    variadic: false,
                }),
            );
        }
        Checker {
            file: tu.file.clone(),
            labels: Vec::new(),
            globals,
            funcs,
            scopes: Scopes::new(),
            char_ptr: Type::Ptr(Arc::new(Type::Char)),
            void_ptr: Type::Ptr(Arc::new(Type::Void)),
            diagnostics: vec![],
            implicit_decls: vec![],
            current_ret: Type::Void,
        }
    }

    fn error(&mut self, msg: impl Into<String>, span: Span) {
        self.diagnostics.push(Diagnostic {
            stage: Stage::Type,
            message: msg.into(),
            span,
            file: self.file.clone(),
        });
    }

    fn lookup_var(&self, name: Name) -> Option<&Type> {
        self.scopes.lookup(name).or_else(|| self.globals.get(name))
    }

    fn check_function(&mut self, tu: &TranslationUnit, f: &mut Function) {
        self.current_ret = f.ret.clone();
        self.labels.clear();
        collect_labels(&f.body, &mut self.labels);
        self.scopes.push();
        for p in &f.params {
            if p.name != Name::EMPTY {
                self.scopes.declare(p.name, p.ty.clone());
            }
        }
        let mut body = std::mem::replace(&mut f.body, Block::empty(Span::DUMMY));
        self.check_block(tu, &mut body);
        f.body = body;
        self.scopes.pop();
    }

    fn check_block(&mut self, tu: &TranslationUnit, block: &mut Block) {
        self.scopes.push();
        for stmt in &mut block.stmts {
            self.check_stmt(tu, stmt);
        }
        self.scopes.pop();
    }

    fn check_stmt(&mut self, tu: &TranslationUnit, stmt: &mut Stmt) {
        let span = stmt.span;
        match &mut stmt.kind {
            StmtKind::Decl { name, ty, init } => {
                if let Some(init) = init {
                    self.check_expr(tu, init);
                    if !ty.assignable_from(&init.ty) {
                        self.error(
                            format!(
                                "cannot initialize `{}: {ty}` from `{}`",
                                tu.name(*name),
                                init.ty
                            ),
                            span,
                        );
                    }
                }
                self.scopes.declare(*name, ty.clone());
            }
            StmtKind::Expr(e) => {
                self.check_expr(tu, e);
            }
            StmtKind::Assign { lhs, rhs } => {
                self.check_expr(tu, lhs);
                self.check_expr(tu, rhs);
                if !lhs.kind.is_lvalue() {
                    self.error("assignment target is not an lvalue", span);
                }
                if !lhs.ty.assignable_from(&rhs.ty) {
                    self.error(
                        format!("cannot assign `{}` to lvalue of type `{}`", rhs.ty, lhs.ty),
                        span,
                    );
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.check_cond(tu, cond);
                self.check_block(tu, then_blk);
                if let Some(e) = else_blk {
                    self.check_block(tu, e);
                }
            }
            StmtKind::While { cond, body } => {
                self.check_cond(tu, cond);
                self.check_block(tu, body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.check_block(tu, body);
                self.check_cond(tu, cond);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push();
                if let Some(i) = init {
                    self.check_stmt(tu, i);
                }
                if let Some(c) = cond {
                    self.check_cond(tu, c);
                }
                if let Some(s) = step {
                    self.check_stmt(tu, s);
                }
                self.check_block(tu, body);
                self.scopes.pop();
            }
            StmtKind::Switch { scrutinee, cases } => {
                self.check_expr(tu, scrutinee);
                if !scrutinee.ty.is_integral() && scrutinee.ty != Type::Error {
                    self.error(
                        format!(
                            "switch scrutinee must be integral, found `{}`",
                            scrutinee.ty
                        ),
                        span,
                    );
                }
                for case in cases {
                    self.check_block(tu, &mut case.body);
                }
            }
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Goto(label) => {
                if !self.labels.contains(label) {
                    self.error(
                        format!("goto to undefined label `{}`", tu.name(*label)),
                        span,
                    );
                }
            }
            StmtKind::Label(_) => {}
            StmtKind::Return(value) => match (value, &self.current_ret.clone()) {
                (Some(v), ret) => {
                    self.check_expr(tu, v);
                    if *ret == Type::Void {
                        self.error("returning a value from a void function", span);
                    } else if !ret.assignable_from(&v.ty) {
                        self.error(
                            format!("cannot return `{}` from function returning `{ret}`", v.ty),
                            span,
                        );
                    }
                }
                (None, ret) => {
                    if *ret != Type::Void {
                        self.error("missing return value", span);
                    }
                }
            },
            StmtKind::Block(b) => self.check_block(tu, b),
        }
    }

    /// Conditions accept any scalar (integral or pointer) type, per C.
    fn check_cond(&mut self, tu: &TranslationUnit, cond: &mut Expr) {
        self.check_expr(tu, cond);
        let t = &cond.ty;
        if !(t.is_integral() || t.is_pointer() || *t == Type::Error) {
            self.error(format!("condition must be scalar, found `{t}`"), cond.span);
        }
    }

    fn check_expr(&mut self, tu: &TranslationUnit, e: &mut Expr) {
        let span = e.span;
        let ty = match &mut e.kind {
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::CharLit(_) => Type::Char,
            ExprKind::StrLit(_) => self.char_ptr.clone(),
            ExprKind::Null => self.void_ptr.clone(),
            ExprKind::Sizeof(_) => Type::ULong,
            ExprKind::Ident(name) => {
                let name = *name;
                if let Some(t) = self.lookup_var(name) {
                    t.clone()
                } else if let Some(&v) = tu.consts.get(name) {
                    // Fold enum constants.
                    e.kind = ExprKind::IntLit(v);
                    Type::Int
                } else if let Some(fn_ptr) = self.funcs.get(name) {
                    fn_ptr.clone()
                } else {
                    self.error(format!("unknown identifier `{}`", tu.name(name)), span);
                    Type::Error
                }
            }
            ExprKind::Unary(op, operand) => {
                self.check_expr(tu, operand);
                match op {
                    UnOp::Neg | UnOp::BitNot => {
                        if !operand.ty.is_integral() && operand.ty != Type::Error {
                            self.error(
                                format!("arithmetic on non-integral `{}`", operand.ty),
                                span,
                            );
                        }
                        operand.ty.clone()
                    }
                    UnOp::Not => Type::Bool,
                    UnOp::Deref => match operand.ty.pointee() {
                        Some(p) => p.clone(),
                        None => {
                            if operand.ty != Type::Error {
                                self.error(
                                    format!("cannot dereference non-pointer `{}`", operand.ty),
                                    span,
                                );
                            }
                            Type::Error
                        }
                    },
                    UnOp::Addr => Type::Ptr(Arc::new(operand.ty.clone())),
                }
            }
            ExprKind::Binary(op, lhs, rhs) => {
                self.check_expr(tu, lhs);
                self.check_expr(tu, rhs);
                if op.is_comparison() || matches!(op, BinOp::LogAnd | BinOp::LogOr) {
                    Type::Bool
                } else if lhs.ty.is_pointer() {
                    lhs.ty.clone() // pointer arithmetic
                } else if rhs.ty.is_pointer() {
                    rhs.ty.clone()
                } else {
                    widest(&lhs.ty, &rhs.ty)
                }
            }
            ExprKind::Member { base, field, arrow } => {
                self.check_expr(tu, base);
                let struct_name = match (&base.ty, *arrow) {
                    (Type::Ptr(inner), true) => match inner.as_ref() {
                        Type::Struct(n) => Some(&**n),
                        _ => None,
                    },
                    (Type::Struct(n), false) => Some(&**n),
                    (Type::Error, _) => None,
                    (other, true) => {
                        self.error(
                            format!("`->` applied to non-struct-pointer `{other}`"),
                            span,
                        );
                        None
                    }
                    (other, false) => {
                        self.error(format!("`.` applied to non-struct `{other}`"), span);
                        None
                    }
                };
                let field = tu.name(*field);
                match struct_name {
                    Some(sname) => match tu.structs.get(sname).and_then(|d| d.field(field)) {
                        Some(f) => f.ty.clone(),
                        None => {
                            self.error(format!("struct `{sname}` has no field `{field}`"), span);
                            Type::Error
                        }
                    },
                    None => Type::Error,
                }
            }
            ExprKind::Index { base, index } => {
                self.check_expr(tu, base);
                self.check_expr(tu, index);
                if !index.ty.is_integral() && index.ty != Type::Error {
                    self.error(
                        format!("index must be integral, found `{}`", index.ty),
                        span,
                    );
                }
                match base.ty.pointee() {
                    Some(p) => p.clone(),
                    None => {
                        if base.ty != Type::Error {
                            self.error(format!("cannot index non-array `{}`", base.ty), span);
                        }
                        Type::Error
                    }
                }
            }
            ExprKind::Cast { ty, expr } => {
                self.check_expr(tu, expr);
                ty.clone()
            }
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                self.check_cond(tu, cond);
                self.check_expr(tu, then_e);
                self.check_expr(tu, else_e);
                then_e.ty.clone()
            }
            ExprKind::AssignExpr { lhs, rhs } => {
                self.check_expr(tu, lhs);
                self.check_expr(tu, rhs);
                if !lhs.ty.assignable_from(&rhs.ty) {
                    self.error(
                        format!("cannot assign `{}` to lvalue of type `{}`", rhs.ty, lhs.ty),
                        span,
                    );
                }
                lhs.ty.clone()
            }
            ExprKind::Call { callee, args } => {
                // `sizeof expr` marker from the parser.
                if let ExprKind::Ident(Name::SIZEOF) = callee.kind {
                    if args.len() == 1 {
                        let mut operand = args.pop().expect("checked len");
                        self.check_expr(tu, &mut operand);
                        e.kind = ExprKind::Sizeof(operand.ty.clone());
                        e.ty = Type::ULong;
                        return;
                    }
                }
                for a in args.iter_mut() {
                    self.check_expr(tu, a);
                }
                let sig = self.resolve_callee(tu, callee, args.len(), span);
                match sig {
                    Some(sig) => {
                        if !sig.variadic && sig.params.len() != args.len() {
                            self.error(
                                format!(
                                    "call expects {} arguments, found {}",
                                    sig.params.len(),
                                    args.len()
                                ),
                                span,
                            );
                        }
                        for (i, (p, a)) in sig.params.iter().zip(args.iter()).enumerate() {
                            if !p.assignable_from(&a.ty) {
                                self.error(
                                    format!(
                                        "argument {} has type `{}`, expected `{p}`",
                                        i + 1,
                                        a.ty
                                    ),
                                    a.span,
                                );
                            }
                        }
                        sig.ret.clone()
                    }
                    None => Type::Error,
                }
            }
        };
        e.ty = ty;
    }

    /// Resolves the callee of a call: a named function/API (recording an
    /// implicit declaration if unseen), or any function-pointer expression.
    fn resolve_callee(
        &mut self,
        tu: &TranslationUnit,
        callee: &mut Expr,
        argc: usize,
        span: Span,
    ) -> Option<Arc<FuncSig>> {
        if let ExprKind::Ident(name) = callee.kind {
            // Local/global function-pointer variables shadow functions.
            if self.lookup_var(name).is_none() {
                if let Some(fn_ptr) = self.funcs.get(name) {
                    callee.ty = fn_ptr.clone();
                    return signature(fn_ptr).cloned();
                }
                // Implicit declaration, C89 style: `int name(...)`.
                let sig = Arc::new(FuncSig {
                    ret: Type::Int,
                    params: vec![Type::Error; argc],
                    variadic: true,
                });
                let fn_ptr = Type::Ptr(Arc::new(Type::Func(sig.clone())));
                self.funcs.insert(name, fn_ptr.clone());
                self.implicit_decls.push(FuncDecl {
                    name,
                    ret: Type::Int,
                    params: vec![],
                    variadic: true,
                    span,
                });
                callee.ty = fn_ptr;
                return Some(sig);
            }
        }
        self.check_expr(tu, callee);
        match &callee.ty {
            Type::Ptr(inner) => match inner.as_ref() {
                Type::Func(sig) => Some(sig.clone()),
                _ => {
                    self.error(
                        format!("called value has non-function type `{}`", callee.ty),
                        span,
                    );
                    None
                }
            },
            Type::Func(sig) => Some(sig.clone()),
            Type::Error => None,
            other => {
                self.error(
                    format!("called value has non-function type `{other}`"),
                    span,
                );
                None
            }
        }
    }
}

/// The pointer-to-function type of `sig`.
fn fn_ptr(sig: FuncSig) -> Type {
    Type::Ptr(Arc::new(Type::Func(Arc::new(sig))))
}

/// The signature behind a pointer-to-function type.
fn signature(ty: &Type) -> Option<&Arc<FuncSig>> {
    match ty {
        Type::Ptr(inner) => match inner.as_ref() {
            Type::Func(sig) => Some(sig),
            _ => None,
        },
        _ => None,
    }
}

/// Appends every `label:` name in a function body to `out`.
fn collect_labels(block: &Block, out: &mut Vec<Name>) {
    fn walk(block: &Block, out: &mut Vec<Name>) {
        for s in &block.stmts {
            match &s.kind {
                StmtKind::Label(l) => out.push(*l),
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, out);
                    if let Some(e) = else_blk {
                        walk(e, out);
                    }
                }
                StmtKind::While { body, .. }
                | StmtKind::DoWhile { body, .. }
                | StmtKind::For { body, .. } => walk(body, out),
                StmtKind::Switch { cases, .. } => {
                    for c in cases {
                        walk(&c.body, out);
                    }
                }
                StmtKind::Block(b) => walk(b, out),
                _ => {}
            }
        }
    }
    walk(block, out);
}

/// The wider of two integral types by conversion rank.
fn widest(a: &Type, b: &Type) -> Type {
    fn rank(t: &Type) -> u8 {
        match t {
            Type::Bool => 0,
            Type::Char => 1,
            Type::Int => 2,
            Type::UInt => 3,
            Type::Long => 4,
            Type::ULong => 5,
            _ => 2,
        }
    }
    if rank(a) >= rank(b) {
        a.clone()
    } else {
        b.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn infers_member_and_deref_types() {
        let tu = compile(
            "struct risc { int *cpu; };\n\
             int f(struct risc *r) { return *r->cpu; }",
            "t.c",
        )
        .unwrap();
        let f = tu.function("f").unwrap();
        let StmtKind::Return(Some(ref e)) = f.body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(e.ty, Type::Int);
    }

    #[test]
    fn folds_enum_constants() {
        let tu = compile(
            "enum { MAX = 32 };\nint f(int n) { if (n > MAX) return 1; return 0; }",
            "t.c",
        )
        .unwrap();
        let f = tu.function("f").unwrap();
        let StmtKind::If { ref cond, .. } = f.body.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Binary(_, _, ref rhs) = cond.kind else {
            panic!()
        };
        assert_eq!(rhs.kind, ExprKind::IntLit(32));
    }

    #[test]
    fn rejects_unknown_field() {
        let err = compile(
            "struct s { int a; };\nint f(struct s *p) { return p->b; }",
            "t.c",
        )
        .unwrap_err();
        assert!(err.first_message().contains("no field `b`"));
    }

    #[test]
    fn rejects_unknown_identifier() {
        let err = compile("int f(void) { return x; }", "t.c").unwrap_err();
        assert!(err.first_message().contains("unknown identifier"));
    }

    #[test]
    fn implicit_api_declaration_is_recorded() {
        let tu = compile("int f(void) { return helper(1, 2); }", "t.c").unwrap();
        assert!(tu.decl("helper").is_some());
    }

    #[test]
    fn rejects_value_return_from_void() {
        let err = compile("void f(void) { return 3; }", "t.c").unwrap_err();
        assert!(err.first_message().contains("void function"));
    }

    #[test]
    fn rejects_missing_return_value() {
        let err = compile("int f(void) { return; }", "t.c").unwrap_err();
        assert!(err.first_message().contains("missing return value"));
    }

    #[test]
    fn null_assigns_to_any_pointer() {
        assert!(compile(
            "struct dev { int x; };\nvoid f(void) { struct dev *d = NULL; if (d) {} }",
            "t.c"
        )
        .is_ok());
    }

    #[test]
    fn indirect_call_through_ops_field() {
        let tu = compile(
            "struct ops { int (*prep)(int v); };\n\
             int f(struct ops *o) { return o->prep(3); }",
            "t.c",
        )
        .unwrap();
        assert!(tu.function("f").is_some());
    }

    #[test]
    fn sizeof_expr_is_rewritten() {
        let tu = compile("int g; unsigned long f(void) { return sizeof(g); }", "t.c").unwrap();
        let f = tu.function("f").unwrap();
        let StmtKind::Return(Some(ref e)) = f.body.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Sizeof(Type::Int)));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let err = compile("int g(int a, int b);\nint f(void) { return g(1); }", "t.c").unwrap_err();
        assert!(err.first_message().contains("expects 2 arguments"));
    }

    #[test]
    fn rejects_deref_of_int() {
        let err = compile("int f(int x) { return *x; }", "t.c").unwrap_err();
        assert!(err.first_message().contains("dereference non-pointer"));
    }

    #[test]
    fn union_field_access() {
        assert!(compile(
            "union data { char block[34]; int word; };\n\
             int f(union data *d) { return d->block[0] + d->word; }",
            "t.c"
        )
        .is_ok());
    }

    #[test]
    fn assignment_in_condition_types() {
        let tu = compile(
            "void *kmalloc(unsigned long size);\n\
             int f(void) { void *p; if ((p = kmalloc(8)) == NULL) return -1; return 0; }",
            "t.c",
        )
        .unwrap();
        assert!(tu.function("f").is_some());
    }

    #[test]
    fn goto_to_undefined_label_rejected() {
        let err = compile("int f(void) { goto nowhere; return 0; }", "t.c").unwrap_err();
        assert!(err.first_message().contains("undefined label"));
    }

    #[test]
    fn goto_cleanup_idiom_accepted() {
        assert!(compile(
            "void release(int *p);\n\
             int f(int *p, int x) {\n\
               if (x < 0) goto out;\n\
               return 0;\n\
             out:\n\
               release(p);\n\
               return -22;\n\
             }",
            "t.c"
        )
        .is_ok());
    }

    #[test]
    fn function_name_as_value() {
        let tu = compile(
            "int impl_a(int x) { return x; }\n\
             struct ops { int (*cb)(int x); };\n\
             void reg(struct ops *o) { o->cb = impl_a; }",
            "t.c",
        )
        .unwrap();
        assert!(tu.function("reg").is_some());
    }
}
