//! A minimal JSON value model, parser and emitter — the grammar of the
//! service wire protocol (DESIGN.md §11), the metrics snapshot and the
//! CLI's JSON output.
//!
//! It is deliberately small: no serde, no streaming, objects as ordered
//! `(key, value)` pairs (field order is part of the wire protocol's
//! byte-identity contract). [`Json::render`] formats numbers with Rust's
//! shortest round-trip `f64` formatting, so responses are
//! **byte-identical** for bit-identical inputs: nothing is rounded.

use std::fmt::Write as _;

/// A parsed JSON value — the full value grammar, minus number forms that
/// do not fit an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as an `f64`. Integers survive exactly below 2^53;
    /// [`Json::as_u64`] refuses the rest.
    Number(f64),
    /// A string (escapes already resolved).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key/value pairs. Duplicate keys are kept as
    /// parsed; [`Json::get`] returns the first match.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number value as a non-negative integer, if this is a number
    /// with an integral value below 2^53. Every `u64` at or above 2^53
    /// becomes an `f64` at or above 2^53, so an integer the `f64` could
    /// have rounded is refused, never read back as a neighbour.
    pub fn as_u64(&self) -> Option<u64> {
        const LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        let v = self.as_number()?;
        ((0.0..LIMIT).contains(&v) && v.fract() == 0.0).then_some(v as u64)
    }

    /// Builds a string value (convenience over `Json::String(x.into())`).
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Builds a number value from an unsigned counter. Values at or above
    /// 2^53 may round, and [`Json::as_u64`] refuses them.
    pub fn u64(v: u64) -> Json {
        Json::Number(v as f64)
    }

    /// Compact canonical serialization: no whitespace, object fields in
    /// stored order, strings escaped exactly as [`json_string`], numbers in
    /// Rust's shortest round-trip `f64` form (so re-parsing reproduces the
    /// same bits, and bit-identical values render byte-identically).
    /// Non-finite numbers render as `null` — JSON has no spelling for them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::String(s) => out.push_str(&json_string(s)),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(key));
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes and quotes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Maximum container nesting the parser accepts. The parser recurses per
/// nesting level and consumes untrusted wire frames up to `MAX_FRAME`
/// (8 MiB) — without a bound, a frame of a few hundred thousand `[`s
/// would overflow the connection thread's stack and abort the daemon.
/// 128 is far beyond any document this codebase produces.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.nested(Parser::object),
            b'[' => self.nested(Parser::array),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    /// Runs a container parse one nesting level down, refusing past
    /// [`MAX_DEPTH`] so untrusted input cannot recurse the stack away.
    fn nested(
        &mut self,
        parse: fn(&mut Parser<'a>) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the maximal run of unescaped bytes as one UTF-8 slice.
            // The input is a `&str` and the run delimiters (`"`, `\`) are
            // ASCII, so the run lands on char boundaries — pushing bytes
            // one at a time as `char`s would mangle multi-byte characters
            // into Latin-1 mojibake.
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?;
                out.push_str(run);
            }
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => unreachable!("run loop stops only at '\"' or '\\\\'"),
            }
        }
    }

    /// Decodes the four hex digits after a `\u`, combining a UTF-16
    /// surrogate pair (`😀`) into its supplementary code point —
    /// standard JSON encoders escape non-BMP characters exactly that way.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        let code = match unit {
            0xd800..=0xdbff => {
                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                }
                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
            }
            _ => unit,
        };
        // Still refuses lone low surrogates (not reachable via a pair).
        char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))
    }

    /// Reads four hex digits as a UTF-16 code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        let unit = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Number).map_err(|_| format!("bad number '{text}'"))
    }

    fn finish(mut self, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }
}

/// Parses a complete JSON document (trailing garbage is an error).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.finish(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_json("{\"a\": [1, -2.5e1, \"x\\n\\\"y\\u0041\"], \"b\": null}")
            .expect("parse");
        let arr = match doc.get("a") {
            Some(Json::Array(items)) => items.clone(),
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], Json::Number(1.0));
        assert_eq!(arr[1], Json::Number(-25.0));
        assert_eq!(arr[2], Json::String("x\n\"yA".to_string()));
        assert_eq!(doc.get("b"), Some(&Json::Null));
    }

    #[test]
    fn render_round_trips_exact_floats() {
        // The wire contract: render → parse reproduces the same bits, and
        // distinct bits render distinctly (shortest round-trip formatting).
        for v in [0.0, 3.0, 0.1, 1.0 / 3.0, 6.02214076e23, -1.5e-12, f64::MAX] {
            let rendered = Json::Number(v).render();
            let back = parse_json(&rendered).expect("parse").as_number().expect("number");
            assert_eq!(v.to_bits(), back.to_bits(), "{v} mangled through render: {rendered}");
        }
        assert_eq!(Json::Number(f64::NAN).render(), "null");
    }

    #[test]
    fn render_is_compact_and_ordered() {
        let doc = Json::Object(vec![
            ("b".to_string(), Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("a".to_string(), Json::str("x\"y")),
        ]);
        assert_eq!(doc.render(), "{\"b\":[null,true],\"a\":\"x\\\"y\"}");
        let back = parse_json(&doc.render()).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn parser_refuses_pathological_nesting_without_crashing() {
        // MAX_FRAME-scale nesting must be a parse error, not a stack
        // overflow that aborts the daemon process.
        let deep = "[".repeat(300_000);
        assert!(parse_json(&deep).expect_err("deep array").contains("nesting"));
        let deep = "{\"k\":".repeat(300_000);
        assert!(parse_json(&deep).expect_err("deep object").contains("nesting"));
        // A document at a sane depth still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn strings_preserve_multibyte_utf8() {
        let doc = parse_json("{\"name\": \"piéce-Ω-部品\"}").expect("parse");
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("piéce-Ω-部品"));
        // And the render → parse round trip keeps the bytes intact.
        let back = parse_json(&Json::str("piéce-Ω-部品").render()).expect("parse");
        assert_eq!(back.as_str(), Some("piéce-Ω-部品"));
    }

    #[test]
    fn unicode_escapes_combine_surrogate_pairs() {
        let doc = parse_json("\"\\ud83d\\ude00\"").expect("surrogate pair");
        assert_eq!(doc.as_str(), Some("😀"));
        // Lone surrogates (either half) stay errors.
        assert!(parse_json("\"\\ud83d\"").is_err());
        assert!(parse_json("\"\\ud83dx\"").is_err());
        assert!(parse_json("\"\\ud83d\\u0041\"").is_err());
        assert!(parse_json("\"\\ude00\"").is_err());
        // BMP escapes are unaffected.
        assert_eq!(parse_json("\"\\u00e9\"").expect("bmp").as_str(), Some("é"));
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Number(42.0).as_u64(), Some(42));
        assert_eq!(Json::Number(4.2).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Null.as_u64(), None);
        // Integers from 2^53 up are refused, not rounded or saturated.
        assert_eq!(Json::u64((1 << 53) - 1).as_u64(), Some((1 << 53) - 1));
        assert_eq!(Json::u64(1 << 53).as_u64(), None);
        assert_eq!(Json::u64((1 << 53) + 1).as_u64(), None);
        assert_eq!(Json::u64(u64::MAX).as_u64(), None);
        assert_eq!(Json::Number(f64::INFINITY).as_u64(), None);
        assert_eq!(Json::Number(f64::NAN).as_u64(), None);
    }
}
