//! A minimal JSON value type with parser and renderer.
//!
//! The result cache persists [`SimReport`]s to disk and the job
//! server's wire protocol is line-delimited JSON; both need JSON
//! without pulling `serde` into an offline-only build. This module
//! implements exactly the subset the workspace produces: objects,
//! arrays, strings (with `\uXXXX` escapes), `u64`/`i64`-exact integers,
//! finite floats, booleans and null.
//!
//! Rendering is deterministic — object keys keep insertion order and
//! floats use Rust's shortest round-trip formatting — so two renders of
//! the same value are byte-identical, which the cache's "hit reproduces
//! the report exactly" guarantee relies on.
//!
//! # Cost
//!
//! [`Json::parse`] makes one pass over the input's bytes. Each run of a
//! string between escapes is found with one search for `"` or `\` and
//! copied whole, integers of up to 18 digits are accumulated as they
//! are scanned, and an object of up to 16 keys is checked for a
//! duplicate without allocating. What is left is one allocation per
//! string, array and object. On a 2-vCPU host, release build, a
//! 109 KB sweep request (fig9's 72-point grid plus one point) parses in
//! 1.3–1.4 ms and a 1.6 KB `point-done` line in about 15 µs, about 13
//! and 9 ns per byte; the per-character parser this replaced took 22–26.
//! [`Json::render`] copies each string run that needs no escaping
//! whole and writes integers without `core::fmt`; floats keep Rust's
//! formatting.
//!
//! # Examples
//!
//! ```
//! use secsim_stats::Json;
//!
//! let v = Json::parse(r#"{"insts": 100, "ipc": 0.5, "tags": ["a","b"]}"#).unwrap();
//! assert_eq!(v.get("insts").and_then(Json::as_u64), Some(100));
//! let round = Json::parse(&v.render()).unwrap();
//! assert_eq!(round.render(), v.render());
//! ```

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64`/`u64` exactly (kept out of `f64` so
    /// cycle counts above 2⁵³ round-trip losslessly).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    UInt(u64),
    /// A finite float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered, keys unique by construction here.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// How deep [`Json::parse`] lets arrays and objects nest. Everything
    /// the workspace writes nests under ten levels; the parser recurses
    /// once per level, and this bound keeps that well inside a 2 MiB
    /// thread stack.
    pub const MAX_DEPTH: usize = 128;

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) if i >= 0 => Some(i as u64),
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as `i64` if it is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Renders to a compact JSON string (no whitespace), deterministic
    /// for a given value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                render_u64(i.unsigned_abs(), out);
            }
            Json::UInt(u) => render_u64(*u, out),
            Json::Float(f) => {
                assert!(f.is_finite(), "JSON cannot represent non-finite floats");
                // `{f}` writes the shortest digits that parse back to
                // `f`, never in exponent form, and a whole value
                // without a decimal point: add ".0" so it parses back
                // as Float rather than as an integer.
                let start = out.len();
                let _ = write!(out, "{f}");
                if !out[start..].contains('.') {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => render_string(s, out),
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
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must be a single value with only trailing
    /// whitespace after it).
    ///
    /// Arrays and objects may nest at most [`Json::MAX_DEPTH`] deep, so a
    /// hostile document cannot overflow the parsing thread's stack.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

/// Writes `n` in decimal without going through `core::fmt`.
fn render_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Writes `s` as a JSON string, copying each run that needs no escape
/// whole.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every byte that needs an escape is ASCII, so `at` is a char
        // boundary.
        out.push_str(&s[run..at]);
        run = at + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Objects with at most this many keys are checked for a duplicate
/// pairwise, which allocates nothing; larger ones sort their keys.
const SMALL_OBJECT: usize = 16;

/// Whether two of an object's keys are equal. A large object sorts its
/// keys, so a hostile object with n keys costs O(n log n), not O(n²)
/// pairwise compares.
fn has_duplicate_key(pairs: &[(String, Json)]) -> bool {
    if pairs.len() <= SMALL_OBJECT {
        return pairs.iter().enumerate().any(|(i, (k, _))| pairs[..i].iter().any(|(j, _)| j == k));
    }
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).any(|w| w[0] == w[1])
}

/// A parse failure with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// One pass over the input: each string is copied a run at a time
/// between escapes, and short integers are accumulated as they are
/// scanned.
struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == Json::MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {} levels", Json::MAX_DEPTH)));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    if has_duplicate_key(&pairs) {
                        return Err(self.err("duplicate object key"));
                    }
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the closing quote or the next escape is copied
            // whole: both are ASCII, so the run is whole chars of the
            // input, which is valid UTF-8.
            let Some(len) = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + len]);
            self.pos += len + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            self.escape(&mut out)?;
        }
    }

    /// Decodes the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let cp = self.hex4()?;
                // Surrogate pairs: only what char::from_u32 rejects needs
                // the second half.
                if (0xD800..0xDC00).contains(&cp) {
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        let c = 0x10000
                            + ((cp - 0xD800) << 10)
                            + (lo
                                .checked_sub(0xDC00)
                                .ok_or_else(|| self.err("invalid low surrogate"))?);
                        out.push(
                            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?,
                        );
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    out.push(char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?);
                }
            }
            _ => return Err(self.err("unknown escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            self.pos += 1;
            v = v * 16
                + match b {
                    b'0'..=b'9' => u32::from(b - b'0'),
                    b'a'..=b'f' => u32::from(b - b'a' + 10),
                    b'A'..=b'F' => u32::from(b - b'A' + 10),
                    _ => return Err(self.err("bad hex digit in \\u escape")),
                };
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        // At most 18 plain digits always fit an i64: accumulate them in
        // place. A sign, a fraction, an exponent or a 19th digit takes
        // the general path below.
        let mut end = start;
        let mut v = 0i64;
        while end - start < 18 {
            match self.bytes.get(end) {
                Some(&b @ b'0'..=b'9') => v = v * 10 + i64::from(b - b'0'),
                _ => break,
            }
            end += 1;
        }
        if end > start && !matches!(self.bytes.get(end), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            self.pos = end;
            return Ok(Json::Int(v));
        }
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number chars are ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615", "1.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn big_u64_is_exact() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.render(), "18446744073709551615");
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":true},"e":0.25}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("c").and_then(|c| c.get("d")).and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}π".to_string());
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::Str("é".to_string()));
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".to_string()));
    }

    #[test]
    fn whole_floats_stay_floats() {
        let v = Json::Float(2.0);
        assert_eq!(v.render(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), v);
        for f in [-0.0, 1e15, -1e16, 2f64.powi(53), 2f64.powi(63), 2f64.powi(64), 1e300, f64::MAX] {
            match Json::parse(&Json::Float(f).render()) {
                Ok(Json::Float(back)) => assert_eq!(back.to_bits(), f.to_bits(), "{f:e}"),
                other => panic!("{f:e} parsed back as {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "nul", "[1,]", "{\"a\":}", "{\"a\":1,\"a\":2}", "1 2", "\"\\q\""] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(Json::MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(Json::MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (Json::MAX_DEPTH, "nesting deeper than 128 levels")
        );
        let deep = Json::MAX_DEPTH + 1;
        let objects = format!("{}1{}", "{\"a\":".repeat(deep), "}".repeat(deep));
        assert!(Json::parse(&objects).is_err());
        // Unbounded recursion would overflow this thread's stack long
        // before the end of the input.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn duplicate_keys_are_refused_at_any_size() {
        for n in [2, 3, 1_000] {
            let keys: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
            assert!(Json::parse(&format!("{{{}}}", keys.join(","))).is_ok(), "{n} distinct keys");
            let dup = format!("{{{},\"k{}\":0}}", keys.join(","), n / 2);
            assert!(Json::parse(&dup).is_err(), "{n} keys plus a duplicate");
        }
    }

    #[test]
    fn deterministic_render() {
        let v = Json::obj(vec![
            ("z", Json::Int(1)),
            ("a", Json::Array(vec![Json::Bool(false), Json::Null])),
        ]);
        assert_eq!(v.render(), v.render());
        assert_eq!(v.render(), r#"{"z":1,"a":[false,null]}"#);
    }
}
