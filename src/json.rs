//! JSON for the `seal serve` line protocol: the workspace codec
//! [`seal_obs::json`], re-exported so `seal::json::{Json, escape}` names
//! the same parser and escaper the trace and metrics files use.

pub use seal_obs::json::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(r#"{"cmd":"infer","pre":["a.c","b.c"],"jobs":4}"#).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("infer"));
        assert_eq!(v.get("jobs").and_then(Json::as_num), Some(4.0));
        let pre = v.get("pre").and_then(Json::as_arr).unwrap();
        assert_eq!(pre.len(), 2);
        assert_eq!(pre[0].as_str(), Some("a.c"));
    }

    #[test]
    fn escapes_round_trip() {
        let raw = "line1\nline2\t\"quoted\" \\ end\u{1}";
        let parsed = Json::parse(&format!("\"{}\"", escape(raw))).unwrap();
        assert_eq!(parsed.as_str(), Some(raw));
    }

    #[test]
    fn unicode_escapes_decode() {
        // Raw UTF-8 passes through; \uXXXX escapes (surrogate pairs
        // included) decode to the same scalars.
        assert_eq!(Json::parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap().as_str(),
            Some("é😀")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nulll",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\" 1}",
            "&&&",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    /// Seeded round trip over strings mixing ASCII runs, 2–4-byte UTF-8
    /// and every character `escape` rewrites: each string survives
    /// `escape` → `parse`, and also an encoding that spells characters with
    /// every escape form the parser accepts (`\/`, `\b`, `\f`, `\uXXXX`,
    /// surrogate pairs), mixed with raw runs.
    #[test]
    fn seeded_strings_round_trip_through_every_escape() {
        let pool: Vec<char> =
            "aZ0 ~/\"\\\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}éß€中\u{ffff}😀\u{10ffff}"
                .chars()
                .collect();
        let mut rng = seal_runtime::rng::Rng::seed_from_u64(24);
        for _ in 0..500 {
            let mut raw = String::new();
            let mut spelled = String::from("\"");
            for _ in 0..rng.gen_range(0..40usize) {
                // ASCII runs of varying length between special characters.
                if rng.gen_bool(0.4) {
                    let run: String = (0..rng.gen_range(1..12usize))
                        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                        .collect();
                    raw.push_str(&run);
                    spelled.push_str(&run);
                    continue;
                }
                let c = pool[rng.gen_range(0..pool.len())];
                raw.push(c);
                let short = match c {
                    '/' => Some("\\/"),
                    '\u{8}' => Some("\\b"),
                    '\u{c}' => Some("\\f"),
                    _ => None,
                };
                match (rng.gen_range(0..3u8), short) {
                    (0, Some(s)) => spelled.push_str(s),
                    (1, _) => {
                        let mut units = [0u16; 2];
                        for u in c.encode_utf16(&mut units) {
                            spelled.push_str(&format!("\\u{u:04X}"));
                        }
                    }
                    _ => escape_into(&c.to_string(), &mut spelled),
                }
            }
            spelled.push('"');
            let escaped = format!("\"{}\"", escape(&raw));
            assert_eq!(Json::parse(&escaped).unwrap().as_str(), Some(raw.as_str()));
            assert_eq!(
                Json::parse(&spelled).unwrap().as_str(),
                Some(raw.as_str()),
                "{spelled}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn numbers_and_literals() {
        assert_eq!(Json::parse("-12.5e2").unwrap().as_num(), Some(-1250.0));
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert!(Json::parse("0123e").is_err());
    }
}
