//! The workspace's one JSON codec: the `seal serve` line protocol, trace
//! files and metrics files are all read with [`Json::parse`] and their
//! strings written with [`escape`] / [`escape_into`].
//!
//! Scope is deliberately small: whole-value parsing (RFC 8259 syntax,
//! `\uXXXX` escapes included, a fixed nesting-depth limit instead of
//! unbounded recursion), object field access by key, and typed accessors.
//! Objects keep their keys in document order, so a reader can rebuild
//! ordered data (span fields) exactly. Numbers are `f64`;
//! [`Json::as_u64`] and [`Json::as_i64`] hand out only the integers an
//! `f64` holds exactly.
//!
//! Parsing is one linear pass: string bodies are copied a run of plain
//! bytes at a time, so a request line of several MiB costs its length,
//! not its length squared.

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: its entries in document order, duplicates included.
    /// [`Json::get`] follows the common last-wins rule.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a request line, a span line and a metrics file are each
    /// exactly one value).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field by key: the last entry with that key (`None` for
    /// absent keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let entries = self.as_obj()?;
        entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The object's entries in document order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The boolean payload, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer: `None` for fractions,
    /// negative numbers and magnitudes of 2^53 or more, where an `f64` can
    /// no longer tell neighbouring integers apart.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n < MAX_EXACT).then_some(n as u64)
    }

    /// The number as an exact signed integer: `None` for fractions and
    /// magnitudes of 2^53 or more.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_num()?;
        (n.fract() == 0.0 && n.abs() < MAX_EXACT).then_some(n as i64)
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// 2^53: every integer below it in magnitude is exact in an `f64`.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// Escapes `s` for embedding in a JSON string literal (quotes excluded).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Appends `s`, escaped as by [`escape`], to `out`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Nesting-depth ceiling: a request line has no business nesting deeper,
/// and the limit turns adversarial `[[[[…` input into a clean per-line
/// error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(format!("expected `:` at byte {}", self.pos));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(entries));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("malformed number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected `\"` at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair: decode the low half too.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat("\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| format!("invalid code point {c:#x}"))?,
                            );
                        }
                        _ => return Err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                b if b < 0x20 => {
                    return Err("unescaped control character in string".to_string());
                }
                _ => {
                    // Copy the whole run of plain bytes up to the next `"`,
                    // `\` or control byte at once. Those stop bytes are
                    // ASCII, so in `&str` input both run ends are char
                    // boundaries and each byte is validated exactly once.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "truncated \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_document_order_and_get_takes_the_last_key() {
        let v = Json::parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("c"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn integer_accessors_are_exact() {
        let num = |t: &str| Json::parse(t).unwrap();
        assert_eq!(num("0").as_u64(), Some(0));
        assert_eq!(num("1e3").as_u64(), Some(1000));
        assert_eq!(num("9007199254740991").as_u64(), Some((1 << 53) - 1));
        assert_eq!(num("-9007199254740991").as_i64(), Some(1 - (1 << 53)));
        assert_eq!(num("-7").as_i64(), Some(-7));
        // Fractions, signs where not allowed, and integers an f64 rounds
        // (2^53 + 1 parses as 2^53) are refused.
        for bad in ["1.5", "-7", "9007199254740992", "9007199254740993", "1e400"] {
            assert_eq!(num(bad).as_u64(), None, "{bad}");
        }
        for bad in ["0.5", "-9007199254740993", "-1e400"] {
            assert_eq!(num(bad).as_i64(), None, "{bad}");
        }
        assert_eq!(Json::Str("1".into()).as_u64(), None);
        assert_eq!(num("true").as_bool(), Some(true));
    }

    #[test]
    fn escape_into_appends_what_escape_returns() {
        let raw = "k\"\u{1}é\n";
        let mut out = String::from("x");
        escape_into(raw, &mut out);
        assert_eq!(out, format!("x{}", escape(raw)));
        assert_eq!(escape(raw), "k\\\"\\u0001é\\n");
    }

    #[test]
    fn raw_control_bytes_are_rejected_wherever_they_fall() {
        // At the start of a string, right after a plain run (ASCII or
        // multi-byte), and right after an escape.
        for bad in [
            "\"\u{1}\"",
            "\"abc\u{1f}\"",
            "\"é😀\n\"",
            "\"x\\n\t\"",
            "{\"k\u{0}\":1}",
        ] {
            assert_eq!(
                Json::parse(bad),
                Err("unescaped control character in string".to_string()),
                "{bad:?}"
            );
        }
        // DEL and every non-ASCII scalar are plain bytes.
        assert_eq!(
            Json::parse("\"\u{7f}\u{80}\u{ffff}\"").unwrap().as_str(),
            Some("\u{7f}\u{80}\u{ffff}")
        );
    }

    /// Every malformed input keeps the error message it had before string
    /// runs were copied whole.
    #[test]
    fn malformed_inputs_keep_their_errors() {
        let cases: &[(&str, &str)] = &[
            ("", "unexpected end of input"),
            ("{", "expected `\"` at byte 1"),
            ("[1,]", "unexpected byte `]` at 3"),
            ("nulll", "trailing characters at byte 4"),
            ("\"abc", "unterminated string"),
            ("\"abc\\", "unterminated escape"),
            ("\"\\x\"", "bad escape `\\x`"),
            ("\"\\ud83d\"", "lone high surrogate"),
            ("\"\\ud83d\\u0041\"", "invalid low surrogate"),
            ("\"\\u12xy\"", "bad \\u escape `12xy`"),
            ("\"\\u1", "truncated \\u escape"),
            ("\"\\uzzzz\"", "bad \\u escape `zzzz`"),
            ("\"\\udc00\"", "invalid code point 0xdc00"),
            ("\"é\"x", "trailing characters at byte 4"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("{1:2}", "expected `\"` at byte 1"),
            ("[1 2]", "expected `,` or `]` at byte 3"),
            ("{\"a\":1 \"b\"}", "expected `,` or `}` at byte 7"),
            ("-x", "malformed number `-` at byte 0"),
            ("nul", "unexpected byte `n` at 0"),
        ];
        for (input, err) in cases {
            assert_eq!(Json::parse(input), Err(err.to_string()), "{input:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(
            Json::parse(&deep),
            Err(format!("nesting deeper than {MAX_DEPTH}"))
        );
    }

    /// A string value of 1 MiB parses in one linear pass (a per-character
    /// re-validation of the rest of the input took tens of seconds here).
    #[test]
    fn a_one_mib_string_value_parses() {
        let chunk = "plain ascii run é😀 \\\"escaped\\\" \\u00e9\\ud83d\\ude00 ";
        let decoded = "plain ascii run é😀 \"escaped\" é😀 ";
        let reps = (1 << 20) / chunk.len() + 1;
        let line = format!("{{\"id\":\"{}\"}}", chunk.repeat(reps));
        assert!(line.len() >= 1 << 20);
        let v = Json::parse(&line).unwrap();
        assert_eq!(
            v.get("id").and_then(Json::as_str),
            Some(decoded.repeat(reps).as_str())
        );
    }
}
