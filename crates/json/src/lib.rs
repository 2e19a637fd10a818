//! The workspace's one JSON implementation: one value tree, one parser,
//! one compact writer and one indented layout. The flow service's wire
//! format, the `m3d-obs` run manifests and the tests' committed goldens
//! (`tests/golden/*.json`) are all [`Value`] trees rendered here. The
//! crate has no dependencies.
//!
//! The dialect is the JSON subset this workspace emits: objects, arrays,
//! strings with standard escapes (including `\uXXXX` surrogate pairs),
//! numbers, booleans and null. The reader is strict about structure
//! (trailing garbage is an error, as are number literals that overflow
//! `f64`) and keeps object keys in document order so mismatches report
//! deterministically. The writer renders floats with Rust's
//! shortest-roundtrip formatting, so a finite `f64` survives a
//! write → parse cycle bit for bit; integral values are written without
//! a fractional part. Integers are exact only below 2^53 (JSON numbers
//! are doubles on the wire), so [`Value::as_u64`] rejects anything
//! larger instead of silently rounding it.
//!
//! Every string in a [`Value`] — member keys and string values alike — is
//! a [`Cow`]. [`parse_borrowed`] points escape-free strings (everything
//! this writer emits) straight into the input buffer, and [`ToJson`]
//! borrows keys and strings from the value it renders, so neither
//! direction allocates per key or per string. [`Cur`] walks
//! a tree, building its error path only when a decode fails, so shape
//! errors ([`DecodeError`]) name the offending member
//! (`options/placer/iterations: expected u64`). [`FromJson`] is the one
//! decode trait and [`decode`] the one text-to-type entry point; requests
//! and responses alike go through them.

mod cur;

pub use cur::Cur;

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value whose strings either borrow (from a parsed input or a
/// rendered value) or own their text.
#[derive(Debug, Clone)]
pub enum Value<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Arr(Vec<Value<'a>>),
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// Numbers compare by bits, so two trees are equal exactly when they
/// render to the same bytes (`-0` is not `0`; a NaN equals itself).
impl PartialEq for Value<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl<'a> Value<'a> {
    /// Object member lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `/`-separated member path from this value.
    #[must_use]
    pub fn path(&self, dotted: &str) -> Option<&Value<'a>> {
        dotted.split('/').try_fold(self, |v, key| v.get(key))
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integral numbers in the double-exact range `0..2^53`. Larger
    /// literals (e.g. request ids) can collide with their neighbors
    /// after the round-trip through `f64`, so they are rejected rather
    /// than returned off by one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0;
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < MAX_EXACT => Some(*v as u64),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON. Finite floats use
    /// shortest-roundtrip formatting (integral values without a `.0`);
    /// non-finite floats render as `null`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) if v.is_finite() => write!(out, "{v}").expect("String writes"),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` between JSON quotes, escaping quotes, backslashes and
/// control characters; runs that need no escape are copied whole.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            write!(out, "\\u{b:04x}").expect("String writes");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The one indented layout (committed manifests): `v` as if nested
/// `indent` columns deep. A container that fits in 100 columns stays on
/// one line; a wider object puts each member on a line of its own, a
/// wider array each element, flat.
pub fn pretty(v: &Value<'_>, indent: usize, out: &mut String) {
    let flat = v.render();
    let (open, close, members) = match v {
        _ if indent + flat.len() <= 100 => return out.push_str(&flat),
        Value::Obj(m) => ('{', '}', m.iter().map(|(k, v)| (Some(k), v)).collect()),
        Value::Arr(a) => ('[', ']', a.iter().map(|v| (None, v)).collect::<Vec<_>>()),
        _ => return out.push_str(&flat),
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        match key {
            Some(key) => {
                write_str(key, out);
                out.push_str(": ");
                pretty(member, indent + 2, out);
            }
            None => member.render_into(out),
        }
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
    out.push(close);
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::Num(v as f64)
    }
}

impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::Num(v as f64)
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}

impl From<String> for Value<'_> {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

impl<'a> From<Vec<Value<'a>>> for Value<'a> {
    fn from(v: Vec<Value<'a>>) -> Self {
        Value::Arr(v)
    }
}

/// Ordered object builder: `Obj::new().put("k", 1u64).build()`. Keys
/// are borrowed, never copied.
#[derive(Debug, Default)]
pub struct Obj<'a>(Vec<(Cow<'a, str>, Value<'a>)>);

impl<'a> Obj<'a> {
    #[must_use]
    pub fn new() -> Obj<'a> {
        Obj(Vec::new())
    }

    /// Appends one member (keys are kept in insertion order).
    #[must_use]
    pub fn put(mut self, key: &'a str, value: impl Into<Value<'a>>) -> Obj<'a> {
        self.0.push((Cow::Borrowed(key), value.into()));
        self
    }

    #[must_use]
    pub fn build(self) -> Value<'a> {
        Value::Obj(self.0)
    }
}

// ---------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------

/// A shape error while decoding a [`Value`] into a structured type: the
/// `/`-separated path from the document root and what was expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Path of the offending member, `/`-separated from the root.
    pub path: String,
    /// What the decoder expected to find.
    pub expected: String,
}

impl DecodeError {
    #[must_use]
    pub fn new(path: &str, expected: impl Into<String>) -> DecodeError {
        DecodeError {
            path: path.to_string(),
            expected: expected.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = if self.path.is_empty() {
            "document root"
        } else {
            &self.path
        };
        write!(f, "{at}: expected {}", self.expected)
    }
}

impl std::error::Error for DecodeError {}

/// Types that render themselves as a JSON [`Value`], borrowing keys and
/// strings from `self`.
pub trait ToJson {
    fn to_json(&self) -> Value<'_>;
}

/// Types that decode themselves from a JSON cursor, without allocating
/// on the success path beyond what the decoded value itself owns.
pub trait FromJson: Sized {
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the path of the first shape
    /// mismatch.
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError>;
}

/// Everything that can go wrong turning text into a typed value: the
/// text was not JSON, or the JSON had the wrong shape.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Lexical/syntactic failure, with the parser's message.
    Parse(String),
    /// Structural failure while decoding into the target type.
    Decode(DecodeError),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse(msg) => write!(f, "invalid JSON: {msg}"),
            JsonError::Decode(e) => write!(f, "unexpected JSON shape: {e}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<DecodeError> for JsonError {
    fn from(e: DecodeError) -> JsonError {
        JsonError::Decode(e)
    }
}

/// Parses `text` and decodes it into `T` in one step.
///
/// # Errors
///
/// Returns [`JsonError::Parse`] for malformed text and
/// [`JsonError::Decode`] for well-formed JSON of the wrong shape.
pub fn decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    let value = parse_borrowed(text).map_err(JsonError::Parse)?;
    T::from_json(&Cur::root(&value)).map_err(JsonError::Decode)
}

// ---------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------

/// Parses one JSON document into a [`Value`] whose strings borrow from
/// `src` (escape-free strings allocate nothing). Errors carry a byte
/// offset.
///
/// # Errors
///
/// Returns a message naming the first offending byte for malformed input
/// (including trailing garbage after the document).
pub fn parse_borrowed(src: &str) -> Result<Value<'_>, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// The deepest nesting of arrays and objects the parser accepts. The
/// parser recurses once per level, so without a bound one line of
/// `[[[[…` overflows the stack of whatever thread decodes it. The
/// documents this workspace writes — requests, responses, stream events,
/// run manifests, test goldens — nest at most five levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value<'a>) -> Result<Value<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    /// Parses one array or object a level down, refusing to open more
    /// than [`MAX_DEPTH`] of them.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value<'a>, String>,
    ) -> Result<Value<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Reads one string. Escape-free strings — every string the
    /// workspace's own writer produces — come back as a borrowed slice
    /// of the input; the first escape falls into the owned builder.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => {
                    let prefix = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    return self.string_tail(prefix.to_string()).map(Cow::Owned);
                }
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    /// The owned slow path: continues a string that contains escapes,
    /// starting at the first backslash, with the escape-free prefix
    /// already in `out`.
    fn string_tail(&mut self, mut out: String) -> Result<String, String> {
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let code = match unit {
                                // A high surrogate names a supplementary
                                // code point only together with the low
                                // surrogate that must follow it.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(format!("unpaired surrogate \\u{unit:04x}"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(format!(
                                            "expected low surrogate after \\u{unit:04x}, got \\u{low:04x}"
                                        ));
                                    }
                                    0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!("unpaired surrogate \\u{unit:04x}"));
                                }
                                scalar => scalar,
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads four hex digits of a `\u` escape as a UTF-16 code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("bad \\u escape")?;
        // Strict hex only: `from_str_radix` alone would admit a sign.
        let text = std::str::from_utf8(hex)
            .ok()
            .filter(|t| t.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        u32::from_str_radix(text, 16).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let v: f64 = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))?;
        // `str::parse` maps overflowing literals like 1e999 to ±inf;
        // passing that through would smuggle a non-finite value past
        // every downstream finiteness guard.
        if !v.is_finite() {
            return Err(format!("number out of range at byte {start}"));
        }
        Ok(Value::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_free_strings_borrow_from_the_input() {
        let src = r#"{"benchmark": "aes", "n": 3, "nested": {"k": "v"}}"#;
        let v = parse_borrowed(src).expect("parse");
        let Value::Obj(members) = &v else {
            panic!("expected object")
        };
        assert!(members.iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        match v.get("benchmark") {
            Some(Value::Str(Cow::Borrowed(s))) => assert_eq!(*s, "aes"),
            other => panic!("expected borrowed str, got {other:?}"),
        }
        let nested = v.get("nested").expect("nested");
        match nested.get("k") {
            Some(Value::Str(Cow::Borrowed(s))) => assert_eq!(*s, "v"),
            other => panic!("expected borrowed str, got {other:?}"),
        }
    }

    #[test]
    fn escaped_strings_fall_back_to_owned() {
        let v = parse_borrowed(r#"{"s": "a\nb"}"#).expect("parse");
        match v.get("s") {
            Some(Value::Str(Cow::Owned(s))) => assert_eq!(s, "a\nb"),
            other => panic!("expected owned str, got {other:?}"),
        }
        // A partial prefix before the escape survives.
        let v = parse_borrowed(r#""prefix\tsuffix""#).expect("parse");
        assert_eq!(v.as_str(), Some("prefix\tsuffix"));
    }

    #[test]
    fn parses_every_kind_of_value() {
        let src = r#"{
  "id": 42, "ok": true, "x": null, "ratio": 0.30000000000000004,
  "s": "plain", "esc": "a\"b\\cA😀",
  "arr": [1, "two", {"three": 3}]
}"#;
        let expected = Obj::new()
            .put("id", 42u64)
            .put("ok", true)
            .put("x", Value::Null)
            .put("ratio", 0.1 + 0.2)
            .put("s", "plain")
            .put("esc", "a\"b\\cA😀")
            .put(
                "arr",
                vec![
                    Value::Num(1.0),
                    Value::from("two"),
                    Obj::new().put("three", 3u64).build(),
                ],
            )
            .build();
        assert_eq!(parse_borrowed(src).expect("parse"), expected);
    }

    #[test]
    fn parses_manifest_shaped_documents() {
        let v = parse_borrowed(
            r#"{
  "bench": "flow", "scale": 0.02, "ok": true,
  "designs": [{"name": "aes", "speedup": 4.5}, {"name": "cpu", "speedup": 3.0}],
  "labels": {"input/netlist": "aes_like"}
}"#,
        )
        .expect("parse");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("flow"));
        assert_eq!(v.get("scale").and_then(Value::as_f64), Some(0.02));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let designs = v.get("designs").and_then(Value::as_arr).expect("arr");
        assert_eq!(designs.len(), 2);
        assert_eq!(designs[1].get("speedup").and_then(Value::as_f64), Some(3.0));
        let label = v.path("labels").and_then(|l| l.get("input/netlist"));
        assert_eq!(label.and_then(Value::as_str), Some("aes_like"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_borrowed("{\"a\": }").is_err());
        assert!(parse_borrowed("[1, 2,]").is_err());
        assert!(parse_borrowed("{} trailing").is_err());
        assert!(parse_borrowed("\"open").is_err());
    }

    #[test]
    fn handles_escapes_and_negatives() {
        let v = parse_borrowed(r#"{"s": "a\"b\\c\nd", "n": -3.25e2}"#).expect("parse");
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-325.0));
        assert_eq!(v.get("n").and_then(Value::as_u64), None);
    }

    #[test]
    fn writer_round_trips_structures() {
        let v = Obj::new()
            .put("id", 42u64)
            .put("name", "a \"quoted\"\nname")
            .put("ratio", 0.1 + 0.2)
            .put("neg", -1.5e-7)
            .put("ok", true)
            .put(
                "items",
                vec![Value::Num(1.0), Value::Null, Value::Str("x".into())],
            )
            .build();
        let text = v.render();
        let back = parse_borrowed(&text).expect("reparse");
        assert_eq!(back, v);
        // Floats survive bit for bit.
        assert_eq!(
            back.get("ratio").and_then(Value::as_f64).map(f64::to_bits),
            Some((0.1f64 + 0.2).to_bits())
        );
    }

    #[test]
    fn writer_escapes_into_the_output() {
        let v = Value::from("tab\there \"q\" back\\ bell\u{7} é");
        assert_eq!(v.render(), r#""tab\there \"q\" back\\ bell\u0007 é""#);
        assert_eq!(parse_borrowed(&v.render()).expect("reparse"), v);
    }

    #[test]
    fn pretty_breaks_only_containers_wider_than_the_page() {
        let narrow = Obj::new()
            .put("a", 1u64)
            .put("b", vec![Value::Null])
            .build();
        let mut out = String::new();
        pretty(&narrow, 0, &mut out);
        assert_eq!(out, r#"{"a":1,"b":[null]}"#);
        let long = "x".repeat(100);
        let wide = Obj::new()
            .put("k", long.as_str())
            .put("arr", vec![Value::from(long.as_str()), Value::from(2u64)])
            .build();
        let mut out = String::new();
        pretty(&wide, 0, &mut out);
        let expected =
            format!("{{\n  \"k\": \"{long}\",\n  \"arr\": [\n    \"{long}\",\n    2\n  ]\n}}");
        assert_eq!(out, expected);
    }

    #[test]
    fn writer_renders_integers_without_fraction() {
        assert_eq!(Value::Num(5.0).render(), "5");
        assert_eq!(Value::Num(0.5).render(), "0.5");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::from(7u64).render(), "7");
    }

    #[test]
    fn surrogate_pairs_decode_to_supplementary_code_points() {
        let escaped = "\"\\ud83d\\ude00\"";
        let v = parse_borrowed(escaped).expect("parse");
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // Raw (unescaped) UTF-8 passes through unchanged too.
        let raw = parse_borrowed("\"\u{1f600}\"").expect("parse");
        assert_eq!(raw.as_str(), Some("\u{1f600}"));
        // Lone or mismatched surrogates are errors, not U+FFFD soup.
        assert!(parse_borrowed(r#""\ud83d""#).is_err());
        assert!(parse_borrowed(r#""\ud83dx""#).is_err());
        assert!(parse_borrowed(r#""\ude00""#).is_err());
        assert!(parse_borrowed(r#""\ud83dA""#).is_err());
        // Plain BMP escapes still work, signs are not hex digits.
        assert_eq!(parse_borrowed(r#""A""#).expect("parse").as_str(), Some("A"));
        assert!(parse_borrowed(r#""\u+12f""#).is_err());
    }

    #[test]
    fn overflowing_literals_and_non_finite_numbers_are_rejected() {
        assert!(parse_borrowed("1e999").is_err());
        assert!(parse_borrowed("-1e999").is_err());
        assert_eq!(
            parse_borrowed("1e308").expect("parse").as_f64(),
            Some(1e308)
        );
        // A hand-built non-finite Value is stopped at the cursor.
        let inf = Value::Num(f64::INFINITY);
        let err = Cur::root(&inf).f64().unwrap_err();
        assert!(err.to_string().contains("finite"));
    }

    #[test]
    fn nesting_past_the_depth_cap_is_an_error_naming_the_byte() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_borrowed(&at_cap).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse_borrowed(&objects).is_ok());
        // One level more fails at the bracket that opens it; a line
        // far deeper (which used to overflow the stack) fails the same
        // way, on a small thread stack.
        let err = parse_borrowed(&format!("[{at_cap}]")).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let deep = "[".repeat(100_000);
        let err = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || parse_borrowed(&deep).map(|_| ()))
            .expect("spawn")
            .join()
            .expect("no stack overflow")
            .unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn integers_at_or_above_2_pow_53_are_not_u64s() {
        assert_eq!(
            Value::Num(9_007_199_254_740_991.0).as_u64(),
            Some((1 << 53) - 1)
        );
        // 2^53 is where doubles stop distinguishing neighbors: the
        // echoed id could belong to a different request, so reject.
        assert_eq!(Value::Num(9_007_199_254_740_992.0).as_u64(), None);
        let v = parse_borrowed("9007199254740993").expect("parse");
        assert_eq!(v.as_u64(), None);
        assert!(Cur::root(&v).u64().is_err());
    }

    #[test]
    fn decode_distinguishes_parse_and_shape_errors() {
        struct Pair {
            a: u64,
            b: f64,
        }
        impl FromJson for Pair {
            fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
                Ok(Pair {
                    a: cur.get("a")?.u64()?,
                    b: cur.get("b")?.f64()?,
                })
            }
        }
        let ok: Pair = decode(r#"{"a": 3, "b": 1.5}"#).expect("decode");
        assert_eq!((ok.a, ok.b), (3, 1.5));
        assert!(matches!(
            decode::<Pair>(r#"{"a": 3, "b": }"#),
            Err(JsonError::Parse(_))
        ));
        assert!(matches!(
            decode::<Pair>(r#"{"a": 3}"#),
            Err(JsonError::Decode(_))
        ));
    }
}
