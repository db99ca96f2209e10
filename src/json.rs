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
