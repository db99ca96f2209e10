//! Abstract syntax tree for the KIR C subset.
//!
//! Every identifier in the tree — variables, functions, fields, labels —
//! and every string literal is a [`Name`] of the unit's
//! [`TranslationUnit::names`] table; struct tags inside [`Type`]s and the
//! [`StructRegistry`] stay text, because the IR keeps them.

use crate::names::{Name, NameMap, NameTable};
use crate::span::Span;
use crate::types::{StructRegistry, Type};

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
    /// Bitwise not `~e`.
    BitNot,
    /// Pointer dereference `*e`.
    Deref,
    /// Address-of `&e`.
    Addr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    LogAnd,
    LogOr,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

impl BinOp {
    /// True for `==`, `!=`, `<`, `>`, `<=`, `>=`.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }

    /// Source spelling.
    pub fn as_str(&self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Shr => ">>",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            LogAnd => "&&",
            LogOr => "||",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
        }
    }
}

/// Expression node with its span and (post-typecheck) type.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// Type filled in by the checker; `Type::Error` before that.
    pub ty: Type,
}

impl Expr {
    /// Creates an expression with an unresolved type.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr {
            kind,
            span,
            ty: Type::Error,
        }
    }
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Character literal (value).
    CharLit(i64),
    /// String literal.
    StrLit(Name),
    /// `NULL`.
    Null,
    /// Variable, function, or enum-constant reference.
    Ident(Name),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Call; `callee` is an identifier for direct calls or any pointer-typed
    /// expression for indirect calls.
    Call {
        /// Called expression.
        callee: Box<Expr>,
        /// Argument expressions in order.
        args: Vec<Expr>,
    },
    /// `base.field` (`arrow == false`) or `base->field` (`arrow == true`).
    Member {
        /// Struct-valued (or struct-pointer-valued) base.
        base: Box<Expr>,
        /// Field name.
        field: Name,
        /// Whether spelled with `->`.
        arrow: bool,
    },
    /// `base[index]`.
    Index {
        /// Array- or pointer-typed base.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `(ty)expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `sizeof(type)`; `sizeof expr` is desugared to this by the checker.
    Sizeof(Type),
    /// `cond ? then_e : else_e`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if true.
        then_e: Box<Expr>,
        /// Value if false.
        else_e: Box<Expr>,
    },
    /// Assignment used in expression position, e.g. `if ((p = f()) == NULL)`.
    AssignExpr {
        /// Assigned lvalue.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
}

impl ExprKind {
    /// True for syntactic lvalues.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self,
            ExprKind::Ident(_)
                | ExprKind::Member { .. }
                | ExprKind::Index { .. }
                | ExprKind::Unary(UnOp::Deref, _)
        )
    }
}

/// A `case`/`default` arm of a `switch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// Constant labels; empty for `default`.
    pub labels: Vec<i64>,
    /// Whether this is the `default` arm.
    pub is_default: bool,
    /// Arm body; falls through to the next arm unless it ends in a
    /// control transfer (`break`, `return`, `continue`).
    pub body: Block,
    /// Location of the `case`/`default` keyword.
    pub span: Span,
}

/// Statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local declaration, optionally initialized.
    Decl {
        /// Variable name.
        name: Name,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Expression evaluated for effect (typically a call).
    Expr(Expr),
    /// Assignment statement; compound operators are desugared by the parser
    /// (`a += b` becomes `a = a + b`).
    Assign {
        /// Target lvalue.
        lhs: Expr,
        /// Assigned value.
        rhs: Expr,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
        /// True branch.
        then_blk: Block,
        /// Optional false branch.
        else_blk: Option<Block>,
    },
    /// `while` loop.
    While {
        /// Loop condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// `do { .. } while (cond);` loop.
    DoWhile {
        /// Body, executed at least once.
        body: Block,
        /// Loop condition.
        cond: Expr,
    },
    /// `for` loop with optional clauses.
    For {
        /// Initialization statement.
        init: Option<Box<Stmt>>,
        /// Continuation condition; `None` means `true`.
        cond: Option<Expr>,
        /// Step statement.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Block,
    },
    /// `switch` over an integral scrutinee.
    Switch {
        /// Scrutinee.
        scrutinee: Expr,
        /// Arms in source order (fallthrough-preserving).
        cases: Vec<SwitchCase>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `goto label;` — the kernel's error-cleanup idiom.
    Goto(Name),
    /// `label:` marking a jump target (attached to the following
    /// statement position).
    Label(Name),
    /// `return;` or `return expr;`
    Return(Option<Expr>),
    /// Nested block.
    Block(Block),
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Location of the opening brace.
    pub span: Span,
}

impl Block {
    /// An empty block at a span.
    pub fn empty(span: Span) -> Self {
        Block {
            stmts: vec![],
            span,
        }
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name; [`Name::EMPTY`] for unnamed prototype parameters.
    pub name: Name,
    /// Parameter type.
    pub ty: Type,
    /// Location.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Name,
    /// Return type.
    pub ret: Type,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Location of the name token.
    pub span: Span,
    /// Whether declared `static`.
    pub is_static: bool,
}

/// A function declaration without body — in KIR these model kernel APIs
/// (the `F` domain of the paper's Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name.
    pub name: Name,
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Param>,
    /// Whether variadic.
    pub variadic: bool,
    /// Location.
    pub span: Span,
}

/// Initializer of a global definition.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// Plain expression initializer.
    Expr(Expr),
    /// Designated struct initializer: `.field = init` pairs. This is the
    /// syntax that binds implementations to interface fields
    /// (`.buf_prepare = buffer_prepare`).
    Designated(Vec<(Name, Initializer)>),
    /// Positional list (arrays / struct-in-order).
    List(Vec<Initializer>),
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Variable name.
    pub name: Name,
    /// Declared type.
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Initializer>,
    /// Location.
    pub span: Span,
    /// Whether declared `static`.
    pub is_static: bool,
    /// Whether declared `const`.
    pub is_const: bool,
}

/// An `enum` definition; variants also land in [`TranslationUnit::consts`].
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDef {
    /// Optional tag.
    pub name: Option<Name>,
    /// `(variant, value)` pairs.
    pub variants: Vec<(Name, i64)>,
    /// Location.
    pub span: Span,
}

/// One parsed (and optionally type-checked) source file.
#[derive(Debug, Clone, Default)]
pub struct TranslationUnit {
    /// Label used in diagnostics.
    pub file: String,
    /// The compilation's name table: every [`Name`] in this unit indexes
    /// into it.
    pub names: NameTable,
    /// Struct layouts.
    pub structs: StructRegistry,
    /// Enum definitions.
    pub enums: Vec<EnumDef>,
    /// Named integer constants (enum variants).
    pub consts: NameMap<i64>,
    /// Global variables.
    pub globals: Vec<GlobalDef>,
    /// API declarations (extern prototypes).
    pub decls: Vec<FuncDecl>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl TranslationUnit {
    /// The text of one of this unit's names.
    pub fn name(&self, name: Name) -> &str {
        self.names.text(name)
    }

    /// Finds a function definition by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        let name = self.names.get(name)?;
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds an API declaration by name.
    pub fn decl(&self, name: &str) -> Option<&FuncDecl> {
        let name = self.names.get(name)?;
        self.decls.iter().find(|d| d.name == name)
    }

    /// Finds a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDef> {
        let name = self.names.get(name)?;
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lvalue_classification() {
        let span = Span::DUMMY;
        let x = NameTable::new().intern("x");
        let id = Expr::new(ExprKind::Ident(x), span);
        assert!(id.kind.is_lvalue());
        let deref = ExprKind::Unary(UnOp::Deref, Box::new(id.clone()));
        assert!(deref.is_lvalue());
        let call = ExprKind::Call {
            callee: Box::new(id),
            args: vec![],
        };
        assert!(!call.is_lvalue());
        assert!(!ExprKind::IntLit(3).is_lvalue());
    }

    #[test]
    fn comparison_ops() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert_eq!(BinOp::Shl.as_str(), "<<");
    }

    #[test]
    fn tu_lookup_helpers() {
        let mut tu = TranslationUnit::default();
        let probe = tu.names.intern("probe");
        tu.functions.push(Function {
            name: probe,
            ret: Type::Int,
            params: vec![],
            body: Block::empty(Span::DUMMY),
            span: Span::DUMMY,
            is_static: false,
        });
        assert!(tu.function("probe").is_some());
        assert!(tu.function("remove").is_none());
        assert!(tu.decl("kmalloc").is_none());
    }
}
