//! Hand-written lexer for the KIR C subset.
//!
//! Supports `//` and `/* */` comments and a one-directive preprocessor:
//! `#define NAME <integer>` lines are lexed into constant definitions that
//! substitute for later uses of `NAME`, which is how KIR sources spell
//! error-code macros such as `#define ENOMEM 12`.
//!
//! Words are sliced out of the source and matched against the keywords on
//! the slice; only a non-keyword is interned into the compilation's
//! [`NameTable`], once per occurrence, and a `#define` applies by name id.
//! String literals keep their bytes: the source is UTF-8 and escapes are
//! ASCII, so a decoded literal is UTF-8 too. Tokens are `Copy`.
//!
//! Positions are a line number plus the byte offset where that line
//! starts; a column is computed when a token starts, so skipping
//! whitespace, comments and words never updates a column byte by byte.
//! Columns count bytes, as they always have.
//!
//! A source may come in [`Segment`]s, each starting at a given line: the
//! scale tier compiles a chunk of the target as the shared prelude plus the
//! chunk's drivers at their single-file lines, with no padding between.
//! Segments lex as one token stream (a `#define` in one applies in the
//! next), but no token or comment crosses a segment boundary.

use crate::diag::{KirError, Stage};
use crate::names::{NameMap, NameTable};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// A piece of source text and the line it starts on (column 1).
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// The text.
    pub text: &'a str,
    /// 1-based line of the text's first byte.
    pub first_line: u32,
}

/// Lexes `source` into a token stream ending with [`TokenKind::Eof`],
/// interning its names into `names`.
pub fn lex(source: &str, file: &str, names: &mut NameTable) -> Result<Vec<Token>, KirError> {
    lex_segments(
        &[Segment {
            text: source,
            first_line: 1,
        }],
        file,
        names,
    )
}

/// Lexes `segments` in order into one token stream ending with
/// [`TokenKind::Eof`] (spanned at the end of the last segment).
pub fn lex_segments(
    segments: &[Segment<'_>],
    file: &str,
    names: &mut NameTable,
) -> Result<Vec<Token>, KirError> {
    let total: usize = segments.iter().map(|s| s.text.len()).sum();
    let mut lx = Lexer {
        src: "",
        pos: 0,
        line: 1,
        line_start: 0,
        file,
        names,
        defines: NameMap::new(),
        // The generated kernel sources average 4.4 bytes per token, so one
        // token per four bytes rarely grows the vector.
        out: Vec::with_capacity(total / 4 + 1),
    };
    for seg in segments {
        lx.src = seg.text;
        lx.pos = 0;
        lx.line = seg.first_line;
        lx.line_start = 0;
        lx.run()?;
    }
    let span = lx.span();
    lx.out.push(Token {
        kind: TokenKind::Eof,
        span,
    });
    Ok(lx.out)
}

struct Lexer<'a, 'n> {
    src: &'a str,
    pos: usize,
    line: u32,
    /// Byte offset of the first byte of the current line.
    line_start: usize,
    file: &'a str,
    names: &'n mut NameTable,
    defines: NameMap<i64>,
    out: Vec<Token>,
}

impl<'a> Lexer<'a, '_> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes().get(self.pos + 1).copied()
    }

    /// Consumes one byte; for the few paths (character and string
    /// literals) that may step over a newline one byte at a time.
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    fn span(&self) -> Span {
        Span::new(self.line, (self.pos - self.line_start + 1) as u32)
    }

    fn err(&self, msg: impl Into<String>) -> KirError {
        KirError::single(Stage::Lex, msg, self.span(), self.file)
    }

    /// An error naming the non-ASCII character that starts at byte `at`
    /// of the current line, pointing at its first byte.
    fn err_multibyte(&self, at: usize, msg: impl FnOnce(char) -> String) -> KirError {
        // Tokens end on ASCII bytes, so `at` starts a character.
        let c = self.src.get(at..).and_then(|s| s.chars().next());
        let c = c.unwrap_or(char::REPLACEMENT_CHARACTER);
        let span = Span::new(self.line, (at - self.line_start + 1) as u32);
        KirError::single(Stage::Lex, msg(c), span, self.file)
    }

    /// Lexes the current segment to its end.
    fn run(&mut self) -> Result<(), KirError> {
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(c) = self.peek() else {
                return Ok(());
            };
            let kind = match c {
                b'#' => {
                    self.directive()?;
                    continue;
                }
                b'0'..=b'9' => TokenKind::Int(self.number()?),
                b'\'' => self.char_lit()?,
                b'"' => self.string_lit()?,
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident_or_keyword(),
                _ => self.punct()?,
            };
            self.out.push(Token { kind, span });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), KirError> {
        let b = self.bytes();
        loop {
            match b.get(self.pos) {
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                Some(b' ' | b'\t' | b'\r' | b'\x0C') => self.pos += 1,
                Some(b'/') => match b.get(self.pos + 1) {
                    // A line comment ends before its newline.
                    Some(b'/') => {
                        self.pos = b[self.pos..]
                            .iter()
                            .position(|&c| c == b'\n')
                            .map_or(b.len(), |i| self.pos + i);
                    }
                    Some(b'*') => {
                        let body = self.pos + 2;
                        let close = b[body..].windows(2).position(|w| w == b"*/");
                        let end = close.map_or(b.len(), |i| body + i + 2);
                        self.skip_lines_to(end);
                        if close.is_none() {
                            return Err(self.err("unterminated block comment"));
                        }
                    }
                    _ => return Ok(()),
                },
                _ => return Ok(()),
            }
        }
    }

    /// Moves to `end`, counting the newlines stepped over.
    fn skip_lines_to(&mut self, end: usize) {
        let skipped = &self.bytes()[self.pos..end];
        let newlines = skipped.iter().filter(|&&c| c == b'\n').count();
        if newlines > 0 {
            let last = skipped.iter().rposition(|&c| c == b'\n').expect("counted");
            self.line += newlines as u32;
            self.line_start = self.pos + last + 1;
        }
        self.pos = end;
    }

    /// Handles `#define NAME <int>`; other directives are rejected.
    fn directive(&mut self) -> Result<(), KirError> {
        self.pos += 1; // '#'
        let word = self.word();
        if word != "define" {
            return Err(self.err(format!("unsupported directive `#{word}`")));
        }
        self.skip_spaces();
        let name = self.word();
        if name.is_empty() {
            return Err(self.err("expected macro name after #define"));
        }
        self.skip_spaces();
        let neg = if self.peek() == Some(b'-') {
            self.pos += 1;
            true
        } else {
            false
        };
        let v = self.number()?;
        let name = self.names.intern(name);
        self.defines.insert(name, if neg { -v } else { v });
        Ok(())
    }

    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// The run of `[A-Za-z0-9_]` at the cursor (possibly empty).
    fn word(&mut self) -> &'a str {
        self.take_while(|&c| c == b'_' || c.is_ascii_alphanumeric())
    }

    /// The (possibly empty) run of ASCII bytes matching `pred` at the
    /// cursor; the run ends on a character boundary.
    fn take_while(&mut self, pred: fn(&u8) -> bool) -> &'a str {
        let start = self.pos;
        self.pos += self.bytes()[start..]
            .iter()
            .position(|c| !pred(c))
            .unwrap_or(self.src.len() - start);
        &self.src[start..self.pos]
    }

    fn number(&mut self) -> Result<i64, KirError> {
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            let text = self.take_while(u8::is_ascii_hexdigit);
            let v = i64::from_str_radix(text, 16)
                .map_err(|_| self.err(format!("invalid hex literal 0x{text}")))?;
            self.eat_int_suffix();
            return Ok(v);
        }
        let text = self.take_while(u8::is_ascii_digit);
        if text.is_empty() {
            return Err(self.err("expected number"));
        }
        let v = text
            .parse::<i64>()
            .map_err(|_| self.err(format!("integer literal {text} out of range")))?;
        self.eat_int_suffix();
        Ok(v)
    }

    fn eat_int_suffix(&mut self) {
        while matches!(
            self.peek(),
            Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')
        ) {
            self.pos += 1;
        }
    }

    fn char_lit(&mut self) -> Result<TokenKind, KirError> {
        self.bump(); // opening quote
        if self.peek().is_some_and(|c| !c.is_ascii()) {
            return Err(self.err_multibyte(self.pos, |c| {
                format!("multi-byte character `{c}` in char literal")
            }));
        }
        let c = match self.bump() {
            Some(b'\\') => match self.bump() {
                Some(b'n') => b'\n' as i64,
                Some(b't') => b'\t' as i64,
                Some(b'0') => 0,
                Some(b'\\') => b'\\' as i64,
                Some(b'\'') => b'\'' as i64,
                Some(c) if !c.is_ascii() => {
                    return Err(
                        self.err_multibyte(self.pos - 1, |c| format!("unsupported escape `\\{c}`"))
                    )
                }
                other => {
                    return Err(self.err(format!(
                        "unsupported escape `\\{}`",
                        other.map(|c| c as char).unwrap_or(' ')
                    )))
                }
            },
            Some(c) => c as i64,
            None => return Err(self.err("unterminated char literal")),
        };
        if self.bump() != Some(b'\'') {
            return Err(self.err("unterminated char literal"));
        }
        Ok(TokenKind::CharLit(c))
    }

    /// A string literal, kept as UTF-8: unescaped runs are copied from the
    /// source as they are, so `"é"` stays `é`.
    fn string_lit(&mut self) -> Result<TokenKind, KirError> {
        self.bump(); // opening quote
        let src = self.src;
        let mut run = self.pos;
        // Allocated at the first escape; until then the literal is a slice.
        let mut decoded: Option<String> = None;
        loop {
            match self.bump() {
                None | Some(b'\n') => return Err(self.err("unterminated string literal")),
                Some(b'"') => {
                    let tail = &src[run..self.pos - 1];
                    let name = match decoded {
                        Some(mut s) => {
                            s.push_str(tail);
                            self.names.intern(&s)
                        }
                        None => self.names.intern(tail),
                    };
                    return Ok(TokenKind::Str(name));
                }
                Some(b'\\') => {
                    let before = &src[run..self.pos - 1];
                    let c = match self.bump() {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        _ => return Err(self.err("unsupported string escape")),
                    };
                    let s = decoded.get_or_insert_with(String::new);
                    s.push_str(before);
                    s.push(c);
                    run = self.pos;
                }
                Some(_) => {}
            }
        }
    }

    fn ident_or_keyword(&mut self) -> TokenKind {
        let word = self.word();
        if let Some(kw) = Keyword::lookup(word) {
            return TokenKind::Keyword(kw);
        }
        let name = self.names.intern(word);
        match self.defines.get(name) {
            Some(&v) => TokenKind::Int(v),
            None => TokenKind::Ident(name),
        }
    }

    fn punct(&mut self) -> Result<TokenKind, KirError> {
        use Punct::*;
        // Every byte a punctuator spells is ASCII and no newline, so the
        // cursor moves without line bookkeeping.
        let c = self.peek().expect("caller checked peek");
        self.pos += 1;
        let two = |lx: &mut Self, next: u8, yes: Punct, no: Punct| {
            if lx.peek() == Some(next) {
                lx.pos += 1;
                yes
            } else {
                no
            }
        };
        let p = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'.' => Dot,
            b'~' => Tilde,
            b'?' => Question,
            b':' => Colon,
            b'^' => Caret,
            b'!' => two(self, b'=', Ne, Bang),
            b'=' => two(self, b'=', Eq, Assign),
            b'%' => Percent,
            b'*' => two(self, b'=', StarAssign, Star),
            b'/' => two(self, b'=', SlashAssign, Slash),
            b'+' => {
                if self.peek() == Some(b'+') {
                    self.pos += 1;
                    PlusPlus
                } else {
                    two(self, b'=', PlusAssign, Plus)
                }
            }
            b'-' => {
                if self.peek() == Some(b'>') {
                    self.pos += 1;
                    Arrow
                } else if self.peek() == Some(b'-') {
                    self.pos += 1;
                    MinusMinus
                } else {
                    two(self, b'=', MinusAssign, Minus)
                }
            }
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.pos += 1;
                    AmpAmp
                } else {
                    two(self, b'=', AmpAssign, Amp)
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.pos += 1;
                    PipePipe
                } else {
                    two(self, b'=', PipeAssign, Pipe)
                }
            }
            b'<' => {
                if self.peek() == Some(b'<') {
                    self.pos += 1;
                    Shl
                } else {
                    two(self, b'=', Le, Lt)
                }
            }
            b'>' => {
                if self.peek() == Some(b'>') {
                    self.pos += 1;
                    Shr
                } else {
                    two(self, b'=', Ge, Gt)
                }
            }
            other if !other.is_ascii() => {
                return Err(
                    self.err_multibyte(self.pos - 1, |c| format!("unexpected character `{c}`"))
                );
            }
            other => {
                return Err(self.err(format!("unexpected character `{}`", other as char)));
            }
        };
        Ok(TokenKind::Punct(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Name;

    fn lex_named(src: &str) -> (Vec<Token>, NameTable) {
        let mut names = NameTable::new();
        let toks = lex(src, "t.c", &mut names).unwrap();
        (toks, names)
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex_named(src).0.into_iter().map(|t| t.kind).collect()
    }

    /// The text of every identifier token.
    fn idents(src: &str) -> Vec<String> {
        let (toks, names) = lex_named(src);
        toks.iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(n) => Some(names.text(n).to_string()),
                _ => None,
            })
            .collect()
    }

    fn string_of(src: &str) -> String {
        let (toks, names) = lex_named(src);
        match toks[0].kind {
            TokenKind::Str(n) => names.text(n).to_string(),
            other => panic!("not a string literal: {other:?}"),
        }
    }

    #[test]
    fn lexes_simple_function_header() {
        let (toks, names) = lex_named("int f(void)");
        let f = names.get("f").unwrap();
        let ks: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Int),
                TokenKind::Ident(f),
                TokenKind::Punct(Punct::LParen),
                TokenKind::Keyword(Keyword::Void),
                TokenKind::Punct(Punct::RParen),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_not_interned() {
        let (_, names) = lex_named("int f(void) { return 0; }");
        assert_eq!(names.get("int"), None);
        assert_eq!(names.get("return"), None);
        assert!(names.get("f").is_some());
    }

    #[test]
    fn repeated_names_share_an_id() {
        let (toks, _) = lex_named("dev len dev");
        assert_eq!(toks[0].kind, toks[2].kind);
        assert_ne!(toks[0].kind, toks[1].kind);
    }

    #[test]
    fn lexes_arrow_and_minus() {
        let ks = kinds("p->f - 1");
        assert!(ks.contains(&TokenKind::Punct(Punct::Arrow)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Minus)));
    }

    #[test]
    fn defines_substitute() {
        let ks = kinds("#define ENOMEM 12\nreturn -ENOMEM;");
        assert!(ks.contains(&TokenKind::Int(12)));
        assert!(!idents("#define ENOMEM 12\nreturn -ENOMEM;").contains(&"ENOMEM".to_string()));
    }

    #[test]
    fn negative_define_value() {
        let ks = kinds("#define EIO -5\nint x = EIO;");
        assert!(ks.contains(&TokenKind::Int(-5)));
    }

    #[test]
    fn keyword_defines_never_apply() {
        let ks = kinds("#define int 5\nint x;");
        assert_eq!(ks[0], TokenKind::Keyword(Keyword::Int));
    }

    #[test]
    fn hex_and_suffixes() {
        assert!(kinds("0xFFul").contains(&TokenKind::Int(255)));
        assert!(kinds("10UL").contains(&TokenKind::Int(10)));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(idents("a /* b */ c // d\n e"), vec!["a", "c", "e"]);
    }

    #[test]
    fn tracks_line_numbers() {
        let (toks, _) = lex_named("a\nbb\n  c");
        assert_eq!(toks[0].span, Span::new(1, 1));
        assert_eq!(toks[1].span, Span::new(2, 1));
        assert_eq!(toks[2].span, Span::new(3, 3));
    }

    #[test]
    fn block_comments_carry_lines_and_columns() {
        let (toks, _) = lex_named("a /* one\ntwo\n  three */ b\n\t c");
        assert_eq!(toks[1].span, Span::new(3, 12));
        assert_eq!(toks[2].span, Span::new(4, 3));
    }

    #[test]
    fn columns_count_bytes() {
        // `é` is two bytes, so `x` starts at byte column 8.
        let (toks, _) = lex_named("\"é\" + x");
        assert_eq!(toks[2].span, Span::new(1, 8));
    }

    #[test]
    fn string_and_char_literals() {
        let ks = kinds(r#""hi\n" 'x' '\0'"#);
        assert_eq!(string_of(r#""hi\n" 'x'"#), "hi\n");
        assert_eq!(ks[1], TokenKind::CharLit('x' as i64));
        assert_eq!(ks[2], TokenKind::CharLit(0));
    }

    #[test]
    fn string_literals_keep_utf8() {
        assert_eq!(string_of("\"é\""), "é");
        assert_eq!(string_of(r#""naïve \"ß\"\t€""#), "naïve \"ß\"\t€");
        assert_eq!(string_of("\"\""), "");
    }

    #[test]
    fn string_and_name_texts_share_the_table() {
        let (toks, _) = lex_named("dev \"dev\"");
        let (TokenKind::Ident(a), TokenKind::Str(b)) = (toks[0].kind, toks[1].kind) else {
            panic!("{toks:?}");
        };
        assert_eq!(a, b);
        assert_ne!(a, Name::EMPTY);
    }

    #[test]
    fn segments_start_at_their_lines_and_share_defines() {
        let mut names = NameTable::new();
        let toks = lex_segments(
            &[
                Segment {
                    text: "#define N 4\nint a;\n",
                    first_line: 1,
                },
                Segment {
                    text: "  int b = N;",
                    first_line: 40,
                },
            ],
            "t.c",
            &mut names,
        )
        .unwrap();
        assert_eq!(toks[3].span, Span::new(40, 3));
        assert_eq!(toks[6].kind, TokenKind::Int(4));
        assert_eq!(toks.last().unwrap().span, Span::new(40, 13));
    }

    #[test]
    fn multi_byte_characters_are_named_whole_at_their_first_byte() {
        let err = |src: &str| {
            lex(src, "t.c", &mut NameTable::new())
                .unwrap_err()
                .to_string()
        };
        // `é` starts at byte column 10 of line 2 and is two bytes long.
        assert_eq!(
            err("int f(void) {\n  return é;\n}"),
            "t.c:2:10: lex error: unexpected character `é`"
        );
        assert_eq!(
            err("int f(void) {\n  return 'é';\n}"),
            "t.c:2:11: lex error: multi-byte character `é` in char literal"
        );
        assert_eq!(
            err("int c = '\\€';"),
            "t.c:1:11: lex error: unsupported escape `\\€`"
        );
        // ASCII diagnostics keep their text and column.
        assert_eq!(
            err("int f(void) {\n  return 1 @ 2;\n}"),
            "t.c:2:13: lex error: unexpected character `@`"
        );
        assert_eq!(
            err("int c = 'ab';"),
            "t.c:1:12: lex error: unterminated char literal"
        );
    }

    #[test]
    fn rejects_unterminated_comment() {
        let err = lex("a\n/* oops\nstill", "t.c", &mut NameTable::new()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "t.c:3:6: lex error: unterminated block comment"
        );
    }

    #[test]
    fn rejects_unknown_directive() {
        assert!(lex("#include <stdio.h>", "t.c", &mut NameTable::new()).is_err());
    }

    #[test]
    fn shift_operators() {
        let ks = kinds("a << 2 >> b <= c >= d");
        assert!(ks.contains(&TokenKind::Punct(Punct::Shl)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Shr)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Le)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Ge)));
    }

    #[test]
    fn increment_decrement() {
        let ks = kinds("i++; --j;");
        assert!(ks.contains(&TokenKind::Punct(Punct::PlusPlus)));
        assert!(ks.contains(&TokenKind::Punct(Punct::MinusMinus)));
    }

    #[test]
    fn null_keyword() {
        assert!(kinds("NULL").contains(&TokenKind::Keyword(Keyword::Null)));
    }
}
