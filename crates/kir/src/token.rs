//! Token definitions for the KIR lexer.

use crate::names::{Name, NameTable};
use crate::span::Span;
use std::fmt;

/// Reserved words of the KIR C subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Int,
    Long,
    Unsigned,
    Char,
    Void,
    Bool,
    Struct,
    Union,
    Enum,
    Const,
    Static,
    Extern,
    If,
    Else,
    While,
    For,
    Do,
    Switch,
    Case,
    Default,
    Break,
    Continue,
    Return,
    Goto,
    Sizeof,
    Null,
    True,
    False,
}

impl Keyword {
    /// Looks up a keyword from its source spelling.
    pub fn lookup(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "int" => Int,
            "long" => Long,
            "unsigned" => Unsigned,
            "char" => Char,
            "void" => Void,
            "bool" => Bool,
            "struct" => Struct,
            "union" => Union,
            "enum" => Enum,
            "const" => Const,
            "static" => Static,
            "extern" => Extern,
            "if" => If,
            "else" => Else,
            "while" => While,
            "for" => For,
            "do" => Do,
            "switch" => Switch,
            "case" => Case,
            "default" => Default,
            "break" => Break,
            "continue" => Continue,
            "return" => Return,
            "goto" => Goto,
            "sizeof" => Sizeof,
            "NULL" => Null,
            "true" => True,
            "false" => False,
            _ => return None,
        })
    }

    /// The canonical source spelling.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Int => "int",
            Long => "long",
            Unsigned => "unsigned",
            Char => "char",
            Void => "void",
            Bool => "bool",
            Struct => "struct",
            Union => "union",
            Enum => "enum",
            Const => "const",
            Static => "static",
            Extern => "extern",
            If => "if",
            Else => "else",
            While => "while",
            For => "for",
            Do => "do",
            Switch => "switch",
            Case => "case",
            Default => "default",
            Break => "break",
            Continue => "continue",
            Return => "return",
            Goto => "goto",
            Sizeof => "sizeof",
            Null => "NULL",
            True => "true",
            False => "false",
        }
    }
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Amp,
    AmpAmp,
    Pipe,
    PipePipe,
    Caret,
    Tilde,
    Bang,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    AmpAssign,
    PipeAssign,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    Shl,
    Shr,
    PlusPlus,
    MinusMinus,
    Question,
    Colon,
}

impl Punct {
    /// The canonical source spelling.
    pub fn as_str(&self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            Amp => "&",
            AmpAmp => "&&",
            Pipe => "|",
            PipePipe => "||",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Assign => "=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Shl => "<<",
            Shr => ">>",
            PlusPlus => "++",
            MinusMinus => "--",
            Question => "?",
            Colon => ":",
        }
    }
}

/// A lexed token. Names and string literals are ids into the
/// compilation's [`NameTable`], so tokens are `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Reserved word.
    Keyword(Keyword),
    /// Identifier (variable, function, type, or field name).
    Ident(Name),
    /// Integer literal (decimal or hex).
    Int(i64),
    /// Character literal, stored as its value.
    CharLit(i64),
    /// String literal, stored without quotes and with escapes decoded.
    Str(Name),
    /// Operator or punctuation.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl TokenKind {
    /// The token as diagnostics name it, resolving names through `names`.
    pub fn display<'a>(&'a self, names: &'a NameTable) -> impl fmt::Display + 'a {
        Shown { kind: self, names }
    }
}

struct Shown<'a> {
    kind: &'a TokenKind,
    names: &'a NameTable,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.kind {
            TokenKind::Keyword(k) => write!(f, "`{}`", k.as_str()),
            TokenKind::Ident(n) => write!(f, "identifier `{}`", self.names.text(n)),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::CharLit(v) => write!(f, "char literal `{v}`"),
            TokenKind::Str(n) => write!(f, "string {:?}", self.names.text(n)),
            TokenKind::Punct(p) => write!(f, "`{}`", p.as_str()),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Token with its source location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The token payload.
    pub kind: TokenKind,
    /// Where the token starts.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        use Keyword::*;
        for kw in [
            Int, Long, Unsigned, Char, Void, Bool, Struct, Union, Enum, Const, Static, Extern, If,
            Else, While, For, Do, Switch, Case, Default, Break, Continue, Return, Goto, Sizeof,
            Null, True, False,
        ] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
        for word in ["nope", "", "integer", "in", "null", "Int", "s", "_int"] {
            assert_eq!(Keyword::lookup(word), None, "{word}");
        }
    }

    #[test]
    fn token_display() {
        let mut names = NameTable::new();
        let shown = |k: TokenKind, names: &NameTable| k.display(names).to_string();
        assert_eq!(shown(TokenKind::Int(42), &names), "integer `42`");
        assert_eq!(shown(TokenKind::Punct(Punct::Arrow), &names), "`->`");
        let dev = names.intern("dev");
        assert_eq!(shown(TokenKind::Ident(dev), &names), "identifier `dev`");
        let s = names.intern("a\"b");
        assert_eq!(shown(TokenKind::Str(s), &names), r#"string "a\"b""#);
    }
}
