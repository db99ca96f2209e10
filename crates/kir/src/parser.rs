//! Recursive-descent parser for the KIR C subset.
//!
//! The grammar is LL(2) except for expression parsing, which uses Pratt
//! precedence climbing. There are no typedefs, so the classic cast/paren
//! ambiguity resolves by one-token lookahead on type-starting keywords.
//!
//! Tokens are `Copy` (names are ids into the compilation's
//! [`NameTable`]), so consuming one copies a few words and allocates
//! nothing; the AST takes the lexer's [`crate::names::Name`]s as they are.
//! Text is looked up only for diagnostics and for struct tags, which
//! [`Type`] and the struct registry keep as text.

use crate::ast::*;
use crate::diag::{KirError, Stage};
use crate::names::{Name, NameTable};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use crate::types::{FuncSig, Type};
use std::sync::Arc;

/// Parses a token stream (as produced by [`crate::lexer::lex`] into
/// `names`) into an untyped [`TranslationUnit`]. The unit comes back with
/// a fresh name table; the caller installs the one the tokens index.
pub fn parse(
    tokens: Vec<Token>,
    names: &NameTable,
    file: &str,
) -> Result<TranslationUnit, KirError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        names,
        file,
    };
    p.translation_unit()
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    names: &'a NameTable,
    file: &'a str,
}

impl Parser<'_> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].kind;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> KirError {
        KirError::single(Stage::Parse, msg, self.span(), self.file)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), KirError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                p.as_str(),
                self.peek().display(self.names)
            )))
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if self.peek() == &TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<(Name, Span), KirError> {
        let span = self.span();
        match self.bump() {
            TokenKind::Ident(n) => Ok((n, span)),
            other => Err(KirError::single(
                Stage::Parse,
                format!("expected identifier, found {}", other.display(self.names)),
                span,
                self.file,
            )),
        }
    }

    /// True if the current token can start a type.
    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword(
                Keyword::Int
                    | Keyword::Long
                    | Keyword::Unsigned
                    | Keyword::Char
                    | Keyword::Void
                    | Keyword::Bool
                    | Keyword::Struct
                    | Keyword::Union
                    | Keyword::Enum
                    | Keyword::Const
            )
        )
    }

    // ---------------------------------------------------------------- types

    /// Parses a base type (no declarator): `unsigned long`, `struct x`, ...
    /// with any trailing `*`s.
    fn parse_type(&mut self) -> Result<Type, KirError> {
        while self.eat_kw(Keyword::Const) {}
        let mut ty = match self.bump() {
            TokenKind::Keyword(Keyword::Void) => Type::Void,
            TokenKind::Keyword(Keyword::Char) => Type::Char,
            TokenKind::Keyword(Keyword::Bool) => Type::Bool,
            TokenKind::Keyword(Keyword::Int) => Type::Int,
            TokenKind::Keyword(Keyword::Long) => {
                self.eat_kw(Keyword::Int);
                Type::Long
            }
            TokenKind::Keyword(Keyword::Unsigned) => {
                if self.eat_kw(Keyword::Long) {
                    self.eat_kw(Keyword::Int);
                    Type::ULong
                } else if self.eat_kw(Keyword::Char) {
                    Type::Char
                } else {
                    self.eat_kw(Keyword::Int);
                    Type::UInt
                }
            }
            TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union) => {
                let (name, _) = self.expect_ident()?;
                Type::Struct(self.names.text(name).into())
            }
            TokenKind::Keyword(Keyword::Enum) => {
                // `enum tag` in a type position is just an int.
                if matches!(self.peek(), TokenKind::Ident(_)) {
                    self.bump();
                }
                Type::Int
            }
            other => {
                return Err(self.err(format!(
                    "expected type, found {}",
                    other.display(self.names)
                )))
            }
        };
        loop {
            while self.eat_kw(Keyword::Const) {}
            if self.eat_punct(Punct::Star) {
                ty = Type::Ptr(Arc::new(ty));
            } else {
                break;
            }
        }
        Ok(ty)
    }

    /// Parses a declarator after the base type: either a plain name with an
    /// optional array suffix, or a function-pointer declarator
    /// `(*name)(params)`.
    fn parse_declarator(&mut self, base: Type) -> Result<(Name, Type, Span), KirError> {
        if self.peek() == &TokenKind::Punct(Punct::LParen)
            && self.peek_at(1) == &TokenKind::Punct(Punct::Star)
        {
            // Function pointer: ret (*name)(params)
            self.bump(); // (
            self.bump(); // *
            let (name, span) = self.expect_ident()?;
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::LParen)?;
            let (params, variadic) = self.parse_param_list()?;
            let sig = FuncSig {
                ret: base,
                params: params.into_iter().map(|p| p.ty).collect(),
                variadic,
            };
            return Ok((name, Type::Ptr(Arc::new(Type::Func(Arc::new(sig)))), span));
        }
        let (name, span) = self.expect_ident()?;
        let mut ty = base;
        if self.eat_punct(Punct::LBracket) {
            let n = match self.bump() {
                TokenKind::Int(v) if v >= 0 => v as u64,
                TokenKind::Punct(Punct::RBracket) => {
                    // Unsized array decays to pointer.
                    return Ok((name, Type::Ptr(Arc::new(ty)), span));
                }
                other => {
                    return Err(self.err(format!(
                        "expected array size, found {}",
                        other.display(self.names)
                    )))
                }
            };
            self.expect_punct(Punct::RBracket)?;
            ty = Type::Array(Arc::new(ty), n);
        }
        Ok((name, ty, span))
    }

    /// Parses a parenthesized parameter list body up to and including `)`.
    fn parse_param_list(&mut self) -> Result<(Vec<Param>, bool), KirError> {
        let mut params = Vec::new();
        let mut variadic = false;
        if self.eat_punct(Punct::RParen) {
            return Ok((params, variadic));
        }
        // `(void)`
        if self.peek() == &TokenKind::Keyword(Keyword::Void)
            && self.peek_at(1) == &TokenKind::Punct(Punct::RParen)
        {
            self.bump();
            self.bump();
            return Ok((params, variadic));
        }
        loop {
            if self.eat_punct(Punct::Dot) {
                // `...` lexes as three dots.
                self.expect_punct(Punct::Dot)?;
                self.expect_punct(Punct::Dot)?;
                variadic = true;
                break;
            }
            let base = self.parse_type()?;
            let span = self.span();
            let (name, ty) = match self.peek() {
                TokenKind::Ident(_) | TokenKind::Punct(Punct::LParen) => {
                    let (n, t, _) = self.parse_declarator(base)?;
                    (n, t)
                }
                _ => (Name::EMPTY, base),
            };
            // Arrays in parameter position decay to pointers.
            let ty = match ty {
                Type::Array(elem, _) => Type::Ptr(elem),
                t => t,
            };
            params.push(Param { name, ty, span });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok((params, variadic))
    }

    // ------------------------------------------------------------ top level

    fn translation_unit(&mut self) -> Result<TranslationUnit, KirError> {
        let mut tu = TranslationUnit {
            file: self.file.to_string(),
            ..Default::default()
        };
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(tu),
                TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union)
                    if self.peek_at(2) == &TokenKind::Punct(Punct::LBrace) =>
                {
                    self.parse_struct_def(&mut tu)?;
                }
                TokenKind::Keyword(Keyword::Enum)
                    if self.peek_at(1) == &TokenKind::Punct(Punct::LBrace)
                        || self.peek_at(2) == &TokenKind::Punct(Punct::LBrace) =>
                {
                    self.parse_enum_def(&mut tu)?;
                }
                _ => self.parse_top_item(&mut tu)?,
            }
        }
    }

    fn parse_struct_def(&mut self, tu: &mut TranslationUnit) -> Result<(), KirError> {
        let is_union = matches!(self.bump(), TokenKind::Keyword(Keyword::Union));
        let (name, _) = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            let base = self.parse_type()?;
            loop {
                let (fname, fty, _) = self.parse_declarator(base.clone())?;
                fields.push((self.names.text(fname).to_string(), fty));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::Semi)?;
        }
        self.expect_punct(Punct::Semi)?;
        tu.structs.define(self.names.text(name), fields, is_union);
        Ok(())
    }

    fn parse_enum_def(&mut self, tu: &mut TranslationUnit) -> Result<(), KirError> {
        let span = self.span();
        self.bump(); // enum
        let name = if let TokenKind::Ident(_) = self.peek() {
            let (n, _) = self.expect_ident()?;
            Some(n)
        } else {
            None
        };
        self.expect_punct(Punct::LBrace)?;
        let mut variants = Vec::new();
        let mut next = 0i64;
        while !self.eat_punct(Punct::RBrace) {
            let (vname, _) = self.expect_ident()?;
            if self.eat_punct(Punct::Assign) {
                let neg = self.eat_punct(Punct::Minus);
                match self.bump() {
                    TokenKind::Int(v) => next = if neg { -v } else { v },
                    other => {
                        return Err(self.err(format!(
                            "expected enum value, found {}",
                            other.display(self.names)
                        )))
                    }
                }
            }
            tu.consts.insert(vname, next);
            variants.push((vname, next));
            next += 1;
            if !self.eat_punct(Punct::Comma) {
                self.expect_punct(Punct::RBrace)?;
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        tu.enums.push(EnumDef {
            name,
            variants,
            span,
        });
        Ok(())
    }

    /// Parses a function definition/declaration or a global variable.
    fn parse_top_item(&mut self, tu: &mut TranslationUnit) -> Result<(), KirError> {
        let mut is_static = false;
        let mut is_extern = false;
        loop {
            if self.eat_kw(Keyword::Static) {
                is_static = true;
            } else if self.eat_kw(Keyword::Extern) {
                is_extern = true;
            } else {
                break;
            }
        }
        let mut is_const = false;
        if self.peek() == &TokenKind::Keyword(Keyword::Const) {
            is_const = true;
        }
        let base = self.parse_type()?;
        let (name, ty, span) = self.parse_declarator(base)?;

        // Function definition or declaration: `name(` follows a plain
        // declarator whose type was not already a function pointer.
        if self.peek() == &TokenKind::Punct(Punct::LParen) && !matches!(ty, Type::Array(..)) {
            self.bump();
            let (params, variadic) = self.parse_param_list()?;
            if self.eat_punct(Punct::Semi) {
                tu.decls.push(FuncDecl {
                    name,
                    ret: ty,
                    params,
                    variadic,
                    span,
                });
                let _ = is_extern;
                return Ok(());
            }
            let body = self.parse_block()?;
            tu.functions.push(Function {
                name,
                ret: ty,
                params,
                body,
                span,
                is_static,
            });
            return Ok(());
        }

        // Global variable.
        let init = if self.eat_punct(Punct::Assign) {
            Some(self.parse_initializer()?)
        } else {
            None
        };
        self.expect_punct(Punct::Semi)?;
        tu.globals.push(GlobalDef {
            name,
            ty,
            init,
            span,
            is_static,
            is_const,
        });
        Ok(())
    }

    fn parse_initializer(&mut self) -> Result<Initializer, KirError> {
        if self.eat_punct(Punct::LBrace) {
            if self.peek() == &TokenKind::Punct(Punct::Dot) {
                let mut pairs = Vec::new();
                while !self.eat_punct(Punct::RBrace) {
                    self.expect_punct(Punct::Dot)?;
                    let (field, _) = self.expect_ident()?;
                    self.expect_punct(Punct::Assign)?;
                    pairs.push((field, self.parse_initializer()?));
                    if !self.eat_punct(Punct::Comma) {
                        self.expect_punct(Punct::RBrace)?;
                        break;
                    }
                }
                return Ok(Initializer::Designated(pairs));
            }
            let mut items = Vec::new();
            while !self.eat_punct(Punct::RBrace) {
                items.push(self.parse_initializer()?);
                if !self.eat_punct(Punct::Comma) {
                    self.expect_punct(Punct::RBrace)?;
                    break;
                }
            }
            return Ok(Initializer::List(items));
        }
        Ok(Initializer::Expr(self.parse_expr()?))
    }

    // ----------------------------------------------------------- statements

    fn parse_block(&mut self) -> Result<Block, KirError> {
        let span = self.span();
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek() == &TokenKind::Eof {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(Block { stmts, span })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, KirError> {
        let span = self.span();
        let kind = match self.peek() {
            TokenKind::Punct(Punct::LBrace) => StmtKind::Block(self.parse_block()?),
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_blk = self.parse_stmt_as_block()?;
                let else_blk = if self.eat_kw(Keyword::Else) {
                    Some(self.parse_stmt_as_block()?)
                } else {
                    None
                };
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                }
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt_as_block()?;
                StmtKind::While { cond, body }
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = self.parse_stmt_as_block()?;
                if !self.eat_kw(Keyword::While) {
                    return Err(self.err("expected `while` after do-block"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::DoWhile { body, cond }
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.parse_simple_stmt()?))
                };
                let cond = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if self.peek() == &TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(Box::new(self.parse_expr_or_assign_stmt_nosemi()?))
                };
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt_as_block()?;
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let scrutinee = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::LBrace)?;
                let mut cases = Vec::new();
                while !self.eat_punct(Punct::RBrace) {
                    cases.push(self.parse_switch_case()?);
                }
                StmtKind::Switch { scrutinee, cases }
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                StmtKind::Break
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Keyword(Keyword::Goto) => {
                self.bump();
                let (label, _) = self.expect_ident()?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::Goto(label)
            }
            // `label:` — an identifier immediately followed by a colon
            // (ternary expressions never start a statement with `ident :`).
            TokenKind::Ident(_) if self.peek_at(1) == &TokenKind::Punct(Punct::Colon) => {
                let (label, _) = self.expect_ident()?;
                self.expect_punct(Punct::Colon)?;
                StmtKind::Label(label)
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                StmtKind::Return(value)
            }
            _ => {
                let stmt = self.parse_simple_stmt()?;
                return Ok(stmt);
            }
        };
        Ok(Stmt { kind, span })
    }

    fn parse_switch_case(&mut self) -> Result<SwitchCase, KirError> {
        let span = self.span();
        let mut labels = Vec::new();
        let mut is_default = false;
        loop {
            if self.eat_kw(Keyword::Case) {
                let neg = self.eat_punct(Punct::Minus);
                match self.bump() {
                    TokenKind::Int(v) => labels.push(if neg { -v } else { v }),
                    TokenKind::CharLit(v) => labels.push(v),
                    other => {
                        return Err(self.err(format!(
                            "expected case label, found {}",
                            other.display(self.names)
                        )))
                    }
                }
                self.expect_punct(Punct::Colon)?;
            } else if self.eat_kw(Keyword::Default) {
                is_default = true;
                self.expect_punct(Punct::Colon)?;
            } else {
                break;
            }
        }
        if labels.is_empty() && !is_default {
            return Err(self.err(format!(
                "expected `case` or `default`, found {}",
                self.peek().display(self.names)
            )));
        }
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Case)
                | TokenKind::Keyword(Keyword::Default)
                | TokenKind::Punct(Punct::RBrace) => break,
                TokenKind::Eof => return Err(self.err("unterminated switch")),
                _ => stmts.push(self.parse_stmt()?),
            }
        }
        Ok(SwitchCase {
            labels,
            is_default,
            body: Block { stmts, span },
            span,
        })
    }

    fn parse_stmt_as_block(&mut self) -> Result<Block, KirError> {
        if self.peek() == &TokenKind::Punct(Punct::LBrace) {
            self.parse_block()
        } else {
            let stmt = self.parse_stmt()?;
            let span = stmt.span;
            Ok(Block {
                stmts: vec![stmt],
                span,
            })
        }
    }

    /// Declaration, assignment, or expression statement, terminated by `;`.
    fn parse_simple_stmt(&mut self) -> Result<Stmt, KirError> {
        let span = self.span();
        if self.at_type_start() {
            let base = self.parse_type()?;
            let (name, ty, _) = self.parse_declarator(base)?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt {
                kind: StmtKind::Decl { name, ty, init },
                span,
            });
        }
        let stmt = self.parse_expr_or_assign_stmt_nosemi()?;
        self.expect_punct(Punct::Semi)?;
        Ok(stmt)
    }

    /// An expression or assignment without the trailing `;` (shared by
    /// expression statements and `for` steps).
    fn parse_expr_or_assign_stmt_nosemi(&mut self) -> Result<Stmt, KirError> {
        let span = self.span();
        let expr = self.parse_expr()?;
        let kind = match expr.kind {
            ExprKind::AssignExpr { lhs, rhs } => StmtKind::Assign {
                lhs: *lhs,
                rhs: *rhs,
            },
            _ => StmtKind::Expr(expr),
        };
        Ok(Stmt { kind, span })
    }

    // ---------------------------------------------------------- expressions

    /// Entry: assignment (lowest precedence, right-associative).
    fn parse_expr(&mut self) -> Result<Expr, KirError> {
        let lhs = self.parse_ternary()?;
        let span = self.span();
        let compound = |op: BinOp| Some(op);
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => Some(None),
            TokenKind::Punct(Punct::PlusAssign) => Some(compound(BinOp::Add)),
            TokenKind::Punct(Punct::MinusAssign) => Some(compound(BinOp::Sub)),
            TokenKind::Punct(Punct::StarAssign) => Some(compound(BinOp::Mul)),
            TokenKind::Punct(Punct::SlashAssign) => Some(compound(BinOp::Div)),
            TokenKind::Punct(Punct::AmpAssign) => Some(compound(BinOp::BitAnd)),
            TokenKind::Punct(Punct::PipeAssign) => Some(compound(BinOp::BitOr)),
            _ => None,
        };
        let Some(op) = op else { return Ok(lhs) };
        if !lhs.kind.is_lvalue() {
            return Err(self.err("left side of assignment is not an lvalue"));
        }
        self.bump();
        let rhs = self.parse_expr()?;
        let rhs = match op {
            None => rhs,
            // `a += b` desugars to `a = a + b`.
            Some(bin) => Expr::new(
                ExprKind::Binary(bin, Box::new(lhs.clone()), Box::new(rhs)),
                span,
            ),
        };
        Ok(Expr::new(
            ExprKind::AssignExpr {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn parse_ternary(&mut self) -> Result<Expr, KirError> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(Punct::Question) {
            let span = cond.span;
            let then_e = self.parse_expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_e = self.parse_ternary()?;
            return Ok(Expr::new(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_e: Box::new(then_e),
                    else_e: Box::new(else_e),
                },
                span,
            ));
        }
        Ok(cond)
    }

    fn binop_of(&self) -> Option<(BinOp, u8)> {
        let TokenKind::Punct(p) = self.peek() else {
            return None;
        };
        Some(match p {
            Punct::PipePipe => (BinOp::LogOr, 1),
            Punct::AmpAmp => (BinOp::LogAnd, 2),
            Punct::Pipe => (BinOp::BitOr, 3),
            Punct::Caret => (BinOp::BitXor, 4),
            Punct::Amp => (BinOp::BitAnd, 5),
            Punct::Eq => (BinOp::Eq, 6),
            Punct::Ne => (BinOp::Ne, 6),
            Punct::Lt => (BinOp::Lt, 7),
            Punct::Gt => (BinOp::Gt, 7),
            Punct::Le => (BinOp::Le, 7),
            Punct::Ge => (BinOp::Ge, 7),
            Punct::Shl => (BinOp::Shl, 8),
            Punct::Shr => (BinOp::Shr, 8),
            Punct::Plus => (BinOp::Add, 9),
            Punct::Minus => (BinOp::Sub, 9),
            Punct::Star => (BinOp::Mul, 10),
            Punct::Slash => (BinOp::Div, 10),
            Punct::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, KirError> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.binop_of() {
            if prec < min_prec {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, KirError> {
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::Addr),
            TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus) => {
                // `++i` desugars to `i = i + 1`.
                let add = matches!(self.bump(), TokenKind::Punct(Punct::PlusPlus));
                let target = self.parse_unary()?;
                return Ok(self.make_incdec(target, add, span));
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                if self.at_type_start() {
                    let ty = self.parse_type()?;
                    self.expect_punct(Punct::RParen)?;
                    return Ok(Expr::new(ExprKind::Sizeof(ty), span));
                }
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                // `sizeof expr` is carried as a call to the reserved
                // `__sizeof` marker; the type checker rewrites it into
                // `Sizeof(type)` once the operand type is known.
                return Ok(Expr::new(
                    ExprKind::Call {
                        callee: Box::new(Expr::new(ExprKind::Ident(Name::SIZEOF), span)),
                        args: vec![e],
                    },
                    span,
                ));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.parse_unary()?;
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(operand)), span));
        }
        // Cast: `(` followed by a type-start token.
        if self.peek() == &TokenKind::Punct(Punct::LParen)
            && matches!(
                self.peek_at(1),
                TokenKind::Keyword(
                    Keyword::Int
                        | Keyword::Long
                        | Keyword::Unsigned
                        | Keyword::Char
                        | Keyword::Void
                        | Keyword::Bool
                        | Keyword::Struct
                        | Keyword::Union
                        | Keyword::Enum
                        | Keyword::Const
                )
            )
        {
            self.bump();
            let ty = self.parse_type()?;
            self.expect_punct(Punct::RParen)?;
            let operand = self.parse_unary()?;
            return Ok(Expr::new(
                ExprKind::Cast {
                    ty,
                    expr: Box::new(operand),
                },
                span,
            ));
        }
        self.parse_postfix()
    }

    fn make_incdec(&self, target: Expr, add: bool, span: Span) -> Expr {
        let one = Expr::new(ExprKind::IntLit(1), span);
        let op = if add { BinOp::Add } else { BinOp::Sub };
        let rhs = Expr::new(
            ExprKind::Binary(op, Box::new(target.clone()), Box::new(one)),
            span,
        );
        Expr::new(
            ExprKind::AssignExpr {
                lhs: Box::new(target),
                rhs: Box::new(rhs),
            },
            span,
        )
    }

    fn parse_postfix(&mut self) -> Result<Expr, KirError> {
        let mut e = self.parse_primary()?;
        loop {
            let span = self.span();
            match self.peek() {
                TokenKind::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    e = Expr::new(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    e = Expr::new(
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: false,
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow: true,
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus) => {
                    let add = matches!(self.bump(), TokenKind::Punct(Punct::PlusPlus));
                    e = self.make_incdec(e, add, span);
                }
                _ => return Ok(e),
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, KirError> {
        let span = self.span();
        let kind = match self.bump() {
            TokenKind::Int(v) => ExprKind::IntLit(v),
            TokenKind::CharLit(v) => ExprKind::CharLit(v),
            TokenKind::Str(s) => ExprKind::StrLit(s),
            TokenKind::Keyword(Keyword::Null) => ExprKind::Null,
            TokenKind::Keyword(Keyword::True) => ExprKind::IntLit(1),
            TokenKind::Keyword(Keyword::False) => ExprKind::IntLit(0),
            TokenKind::Ident(name) => ExprKind::Ident(name),
            TokenKind::Punct(Punct::LParen) => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(KirError::single(
                    Stage::Parse,
                    format!("expected expression, found {}", other.display(self.names)),
                    span,
                    self.file,
                ))
            }
        };
        Ok(Expr::new(kind, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> TranslationUnit {
        let mut names = NameTable::new();
        let tokens = lex(src, "t.c", &mut names).unwrap();
        let mut tu = parse(tokens, &names, "t.c").unwrap();
        tu.names = names;
        tu
    }

    #[test]
    fn parses_fig1_interface_table() {
        let tu = parse_src(
            "struct vb2_ops { int (*buf_prepare)(struct vb2_buffer *vb); };\n\
             int buffer_prepare(struct vb2_buffer *vb) { return 0; }\n\
             struct vb2_ops cx23885_qops = { .buf_prepare = buffer_prepare, };",
        );
        assert!(tu.structs.get("vb2_ops").is_some());
        assert_eq!(tu.functions.len(), 1);
        let g = tu.global("cx23885_qops").unwrap();
        assert!(matches!(g.init, Some(Initializer::Designated(_))));
    }

    #[test]
    fn parses_api_declaration() {
        let tu = parse_src("void *dma_alloc_coherent(struct device *dev, unsigned long size);");
        let d = tu.decl("dma_alloc_coherent").unwrap();
        assert_eq!(d.params.len(), 2);
        assert!(matches!(d.ret, Type::Ptr(_)));
    }

    #[test]
    fn parses_if_else_and_return_error_code() {
        let tu = parse_src(
            "#define ENOMEM 12\n\
             int f(int *p) { if (p == NULL) { return -ENOMEM; } return 0; }",
        );
        let f = tu.function("f").unwrap();
        assert!(matches!(f.body.stmts[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn parses_for_loop_with_incdec() {
        let tu =
            parse_src("void f(int n, int *a) { int i; for (i = 0; i < n; i++) { a[i] = 0; } }");
        let f = tu.function("f").unwrap();
        let StmtKind::For { ref step, .. } = f.body.stmts[1].kind else {
            panic!("expected for");
        };
        assert!(matches!(
            step.as_ref().unwrap().kind,
            StmtKind::Assign { .. }
        ));
    }

    #[test]
    fn parses_switch_with_fallthrough() {
        let tu = parse_src(
            "int f(int size) { switch (size) { case 1: case 2: return 1; default: break; } return 0; }",
        );
        let f = tu.function("f").unwrap();
        let StmtKind::Switch { ref cases, .. } = f.body.stmts[0].kind else {
            panic!("expected switch");
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].labels, vec![1, 2]);
        assert!(cases[1].is_default);
    }

    #[test]
    fn parses_assignment_in_condition() {
        let tu = parse_src(
            "void *g(void);\nint f(void) { void *p; if ((p = g()) == NULL) return 1; return 0; }",
        );
        assert!(tu.function("f").is_some());
    }

    #[test]
    fn parses_member_chains_and_address_of() {
        let tu = parse_src(
            "struct risc { int *cpu; };\nstruct buf { struct risc r; };\n\
             int h(struct risc *m);\n\
             int f(struct buf *b) { return h(&b->r); }",
        );
        assert!(tu.function("f").is_some());
    }

    #[test]
    fn compound_assignment_desugars() {
        let tu = parse_src("void f(int x) { x += 2; }");
        let f = tu.function("f").unwrap();
        let StmtKind::Assign { ref rhs, .. } = f.body.stmts[0].kind else {
            panic!("expected assign");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Add, ..)));
    }

    #[test]
    fn parses_ternary_and_cast() {
        let tu = parse_src("long f(int a) { return (long)(a > 0 ? a : -a); }");
        assert!(tu.function("f").is_some());
    }

    #[test]
    fn parses_enum_definition() {
        let tu = parse_src("enum mode { MODE_A, MODE_B = 5, MODE_C };");
        let value = |n: &str| tu.consts.get(tu.names.get(n).unwrap()).copied();
        assert_eq!(value("MODE_A"), Some(0));
        assert_eq!(value("MODE_B"), Some(5));
        assert_eq!(value("MODE_C"), Some(6));
    }

    #[test]
    fn parses_union_and_array_field() {
        let tu = parse_src("union smbus_data { char block[34]; int word; };");
        let d = tu.structs.get("smbus_data").unwrap();
        assert!(d.is_union);
        assert_eq!(d.field("block").unwrap().offset, 0);
    }

    #[test]
    fn parses_global_function_pointer_array_struct() {
        let tu =
            parse_src("struct ops { void (*cb)(int x); };\nstatic struct ops table;\nint data[8];");
        assert_eq!(tu.globals.len(), 2);
        assert!(matches!(tu.global("data").unwrap().ty, Type::Array(_, 8)));
    }

    #[test]
    fn rejects_bad_assignment_target() {
        let mut names = NameTable::new();
        let toks = lex("void f(void) { 1 = 2; }", "t.c", &mut names).unwrap();
        assert!(parse(toks, &names, "t.c").is_err());
    }

    #[test]
    fn parses_do_while() {
        let tu = parse_src("void f(int n) { do { n = n - 1; } while (n > 0); }");
        assert!(matches!(
            tu.function("f").unwrap().body.stmts[0].kind,
            StmtKind::DoWhile { .. }
        ));
    }

    #[test]
    fn parses_variadic_decl() {
        let tu = parse_src("int printk(char *fmt, ...);");
        assert!(tu.decl("printk").unwrap().variadic);
    }

    #[test]
    fn parses_indirect_call_through_field() {
        let tu = parse_src(
            "struct ops { int (*prep)(int v); };\n\
             int f(struct ops *o) { return o->prep(3); }",
        );
        assert!(tu.function("f").is_some());
    }

    #[test]
    fn parses_goto_and_labels() {
        let tu = parse_src(
            "int f(int x) {\n  if (x < 0) goto fail;\n  return 0;\nfail:\n  return -22;\n}",
        );
        let f = tu.function("f").unwrap();
        assert!(f
            .body
            .stmts
            .iter()
            .any(|s| matches!(s.kind, StmtKind::Label(l) if tu.name(l) == "fail")));
    }

    #[test]
    fn label_does_not_shadow_ternary() {
        // `x ? a : b` must still parse (the label lookahead requires the
        // colon to directly follow the identifier at statement start).
        let tu = parse_src("int f(int x, int a, int b) { return x ? a : b; }");
        assert!(tu.function("f").is_some());
    }

    #[test]
    fn keeps_line_numbers() {
        let tu = parse_src("int f(void)\n{\n  return 1;\n}");
        let f = tu.function("f").unwrap();
        assert_eq!(f.body.stmts[0].span.line, 3);
    }
}
