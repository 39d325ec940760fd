//! The one JSON module of vi-noc: a serde-free document model ([`Value`])
//! with strict member accessors, a depth-capped recursive-descent parser
//! ([`parse`]), and a streaming, byte-deterministic writer ([`Obj`],
//! [`num`], [`string`], [`array()`], [`lines`]).
//!
//! Every vi-noc format goes through here: scenario files, reports, shard
//! checkpoints and frontier files, fleet messages and job payloads, and
//! dynamic-sweep tables. The writer is *byte-stable* by design. Object key
//! order is the writer's (objects are ordered key/value lists, not maps), layout is
//! compact or one member per line, and numbers use Rust's shortest
//! round-trip `Display` form, which re-parses to the exact same `f64` and
//! re-formats to the exact same text. So `write(parse(write(x)))` equals
//! `write(x)` byte for byte — what lets `sweep merge` re-emit parsed shard
//! entries as the unsharded run's exact frontier bytes.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so without a cap a few kilobytes of `[` would overflow the
/// stack; the deepest committed document nests 9 levels.
pub const MAX_DEPTH: usize = 128;

/// Largest integer [`Value::as_u64`] vouches for: 2^53, above which not
/// every integer is a double. An integer a writer emits for some reader to
/// take back must not exceed it.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// One JSON value. Objects preserve insertion/parse order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as an ordered key/value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number behind this value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number behind this value, if it is an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= MAX_EXACT_INT as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The string behind this value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements behind this value, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    // --- Strict accessors: every error is `{ctx}: ...` with a pinned text.

    /// Member `key`, or `{ctx}: missing '{key}'`.
    pub fn member(&self, key: &str, ctx: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("{ctx}: missing '{key}'"))
    }

    fn typed<'v, T>(
        &'v self,
        key: &str,
        ctx: &str,
        what: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        read(self.member(key, ctx)?).ok_or_else(|| format!("{ctx}: '{key}' is not {what}"))
    }

    /// Member `key` as an exact unsigned integer.
    pub fn u64_member(&self, key: &str, ctx: &str) -> Result<u64, String> {
        self.typed(key, ctx, "an unsigned integer", Value::as_u64)
    }

    /// Member `key` as an exact unsigned integer narrowed to `usize`.
    pub fn usize_member(&self, key: &str, ctx: &str) -> Result<usize, String> {
        self.typed(key, ctx, "an unsigned integer", Value::as_usize)
    }

    /// Member `key` as a number.
    pub fn f64_member(&self, key: &str, ctx: &str) -> Result<f64, String> {
        self.typed(key, ctx, "a number", Value::as_f64)
    }

    /// Member `key` as a string.
    pub fn str_member(&self, key: &str, ctx: &str) -> Result<&str, String> {
        self.typed(key, ctx, "a string", Value::as_str)
    }

    /// Member `key` as a boolean.
    pub fn bool_member(&self, key: &str, ctx: &str) -> Result<bool, String> {
        self.typed(key, ctx, "a boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// Checks that this is an object whose members all appear in
    /// `allowed`.
    pub fn check_members(&self, allowed: &[&str], ctx: &str) -> Result<(), String> {
        let Value::Obj(members) = self else {
            return Err(format!("{ctx}: not an object"));
        };
        match members.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("{ctx}: unknown member '{k}'")),
            None => Ok(()),
        }
    }

    /// Removes and returns member `key` of an object (avoids deep-cloning
    /// payload trees when dismantling a parsed document).
    pub fn take_member(&mut self, key: &str, ctx: &str) -> Result<Value, String> {
        match self {
            Value::Obj(members) => members
                .iter()
                .position(|(k, _)| k == key)
                .map(|i| members.remove(i).1)
                .ok_or_else(|| format!("{ctx}: missing '{key}'")),
            _ => Err(format!("{ctx}: not an object")),
        }
    }

    /// Serializes compactly (no whitespace), byte-deterministically.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => num(out, *x),
            Value::Str(s) => string(out, s),
            Value::Arr(items) => array(out, items, |out, v| v.write(out)),
            Value::Obj(members) => {
                let mut o = Obj::new(out);
                for (k, v) in members {
                    v.write(o.key(k));
                }
                o.end();
            }
        }
    }

    /// [`Value::write`] into a fresh string.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

// --- Writer ---------------------------------------------------------------

/// A number the writer can emit: a finite `f64` or an unsigned integer.
pub trait Num: fmt::Display + Copy {
    /// `false` only for values JSON cannot represent (NaN, infinities).
    fn is_finite(self) -> bool {
        true
    }
}

impl Num for f64 {
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}
impl Num for u32 {}
impl Num for u64 {}
impl Num for u128 {}
impl Num for usize {}

/// Appends `x` as a JSON number.
///
/// Floats use Rust's shortest round-trip formatting (no exponents, `1` for
/// `1.0`), so `s.parse::<f64>()` returns the exact input value and
/// re-formatting the parsed value reproduces the exact string.
///
/// # Panics
///
/// Debug builds assert that `x` is finite; synthesized metrics never
/// produce NaNs or infinities.
pub fn num(out: &mut String, x: impl Num) {
    debug_assert!(x.is_finite(), "JSON cannot represent {x}");
    let _ = write!(out, "{x}");
}

/// Appends already-serialized JSON text verbatim.
pub fn raw(out: &mut String, json: &str) {
    out.push_str(json);
}

/// Appends `s` quoted and escaped as a JSON string literal. Only `"`, `\`
/// and control characters are escaped; everything else is copied as is.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // ASCII bytes are always char boundaries, so the slice is valid.
        out.push_str(&s[copied..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// Appends a compact array (`[a,b,c]`), writing each item with `item`.
pub fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Appends an array with one item per line: `[`, then each item on a
/// line of its own, then `]` on its own line (`[\n]` when empty) — the
/// layout of frontier entries and table rows.
pub fn lines<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        item(out, x);
    }
    out.push_str("\n]");
}

/// A streaming object writer: owns the braces, the member separators and
/// the key quoting; the caller supplies members in order.
///
/// ```
/// use vi_noc_core::json::Obj;
///
/// let mut s = String::new();
/// Obj::new(&mut s).str("name", "d12").num("islands", 4usize).end();
/// assert_eq!(s, "{\"name\":\"d12\",\"islands\":4}");
/// ```
pub struct Obj<'a> {
    out: &'a mut String,
    sep: &'static str,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens a compact object (`{"a":1,"b":2}`).
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Obj {
            out,
            sep: ",",
            empty: true,
        }
    }

    /// Opens an object with one member per line: the first member follows
    /// the `{`, every later one starts a new line — the top-level layout of
    /// every vi-noc file.
    pub fn lines(out: &'a mut String) -> Self {
        Obj {
            sep: ",\n",
            ..Obj::new(out)
        }
    }

    /// Writes the separator and the quoted `key` with its colon, and
    /// returns the output for the caller to append the value.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push_str(self.sep);
        }
        self.empty = false;
        string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A member whose value is already-serialized JSON text.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// A number member.
    pub fn num(&mut self, key: &str, x: impl Num) -> &mut Self {
        num(self.key(key), x);
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, s: &str) -> &mut Self {
        string(self.key(key), s);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, b: bool) -> &mut Self {
        self.raw(key, if b { "true" } else { "false" })
    }

    /// Closes the object.
    pub fn end(&mut self) {
        self.out.push('}');
    }

    /// Closes the object with its brace on a line of its own (the layout
    /// of scenario and report files).
    pub fn end_line(&mut self) {
        self.out.push_str("\n}");
    }
}

// --- Parser ---------------------------------------------------------------

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// Strict where vi-noc's formats need it: duplicate object keys,
/// non-finite numbers, surrogate `\u` escapes and nesting deeper than
/// [`MAX_DEPTH`] are errors.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
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

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        let x = match text.parse::<f64>() {
            Ok(x) if x.is_finite() => x,
            // Over-range literals like 1e999 parse to infinity; reject them
            // here so they cannot reach the writer, whose finite-number
            // contract (`num`) they would violate on re-emission.
            _ => return Err(self.err(&format!("invalid or non-finite number '{text}'"))),
        };
        // An integer literal must be exactly what the writer emits for the
        // double it parses to, or the value read is not the one written:
        // 9007199254740993 would silently become 2^53. (The writer spells
        // large doubles as digit strings, 1e308 as 309 digits, and those
        // are accepted.) Up to 15 digits without a leading zero always
        // are, so only longer literals pay for writing the double back.
        let digits = text.strip_prefix('-').unwrap_or(text);
        let short = digits.len() <= 15 && (digits == "0" || !digits.starts_with('0'));
        if !short && !text.contains(['.', 'e', 'E']) && x.to_string() != text {
            return Err(self.err(&format!(
                "integer '{text}' does not round-trip (reads as {x})"
            )));
        }
        Ok(Value::Num(x))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs never appear in our own output
                            // (the writer escapes only control characters);
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            s.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    s.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 character. The input
                    // arrived as &str, so `b` is a valid leading byte and
                    // the full sequence is in bounds; decode just it (the
                    // whole remaining input must not be re-validated here —
                    // that would make string parsing quadratic).
                    let width = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + width])
                        .expect("valid UTF-8");
                    s.push_str(chunk);
                    self.pos += width;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            // Duplicate keys are ambiguous (RFC 8259 leaves the semantics
            // undefined) and our own writers never emit them; reject rather
            // than silently shadow. Objects here have fixed small key sets,
            // so the linear scan stays cheap.
            if members.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    at: key_at,
                    msg: format!("duplicate object key '{key}'"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn number(x: f64) -> String {
        let mut s = String::new();
        num(&mut s, x);
        s
    }

    fn quoted(text: &str) -> String {
        let mut s = String::new();
        string(&mut s, text);
        s
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Value::Str("a\n\"bA".to_string())
        );
        let v = parse("{\"a\":[1,2,{\"b\":false}],\"c\":null}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"open", "{a:1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_duplicate_object_keys() {
        let err = parse("{\"a\":1,\"b\":2,\"a\":3}").unwrap_err();
        assert!(err.msg.contains("duplicate"), "{err}");
        // Equal keys in *different* objects are fine.
        assert!(parse("[{\"a\":1},{\"a\":2}]").is_ok());
        // Nested duplicate still caught.
        assert!(parse("{\"o\":{\"x\":1,\"x\":1}}").is_err());
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for bad in ["1e999", "-1e999", "[1,2,1e400]", "{\"x\":1e999}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // The largest finite doubles still parse.
        assert!(parse("1.7976931348623157e308").is_ok());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "JSON error at byte 128: nesting deeper than 128 levels"
        );
        // Inputs that used to overflow the stack fail at the same byte.
        for deep in ["[".repeat(200_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.msg.contains("nesting deeper than 128"), "{err}");
        }
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse(&objects).is_ok());
    }

    #[test]
    fn compact_writes_are_reparse_stable() {
        let doc = "{\"s\":\"x\\\"y\",\"n\":0.1,\"i\":42,\"neg\":-0,\"a\":[true,null,1e3]}";
        let v = parse(doc).unwrap();
        let out = v.to_json();
        // Our writer canonicalizes (1e3 -> 1000); its own output is a fixed
        // point of parse -> write.
        let v2 = parse(&out).unwrap();
        assert_eq!(v, v2);
        assert_eq!(v2.to_json(), out);
    }

    #[test]
    fn multibyte_utf8_strings_survive() {
        let v = parse("\"caf\u{e9} \u{2603} \u{1f600}\"").unwrap();
        assert_eq!(v.as_str(), Some("café ☃ 😀"));
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn integer_u64_extraction_is_checked() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn integer_literals_a_double_cannot_hold_exactly_are_errors() {
        for (text, at, reads_as) in [
            ("[9007199254740993]", 17, "9007199254740992"),
            ("18446744073709551615", 20, "18446744073709552000"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.at, at, "{text}");
            assert!(
                err.msg.contains("does not round-trip") && err.msg.contains(reads_as),
                "{text}: {}",
                err.msg
            );
        }
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        // The writer's 309-digit spelling of 1e308 is not that double's
        // exact value, but it is what the writer emits, so it reads back.
        assert_eq!(parse(&number(1e308)).unwrap().as_f64(), Some(1e308));
        // 2^53 + 2 is a double, but not an integer `as_u64` vouches for.
        let v = parse("{\"n\":9007199254740994}").unwrap();
        assert_eq!(v.f64_member("n", "ctx"), Ok(9007199254740994.0));
        assert_eq!(
            v.u64_member("n", "ctx"),
            Err("ctx: 'n' is not an unsigned integer".to_string())
        );
    }

    #[test]
    fn json_numbers_round_trip_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            0.1,
            1.0 / 3.0,
            6.02e4,
            123456789.123456,
            f64::MIN_POSITIVE,
        ] {
            let s = number(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
            assert_eq!(number(back), s, "re-serialization of {s}");
        }
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn strict_accessors_name_the_path() {
        let mut v = parse("{\"n\":7,\"x\":1.5,\"s\":\"t\",\"b\":true}").unwrap();
        assert_eq!(v.u64_member("n", "ctx"), Ok(7));
        assert_eq!(v.usize_member("n", "ctx"), Ok(7));
        assert_eq!(v.f64_member("x", "ctx"), Ok(1.5));
        assert_eq!(v.str_member("s", "ctx"), Ok("t"));
        assert_eq!(v.bool_member("b", "ctx"), Ok(true));
        assert_eq!(v.member("m", "ctx"), Err("ctx: missing 'm'".to_string()));
        assert_eq!(
            v.u64_member("x", "ctx"),
            Err("ctx: 'x' is not an unsigned integer".to_string())
        );
        assert_eq!(
            v.f64_member("s", "ctx"),
            Err("ctx: 's' is not a number".to_string())
        );
        assert_eq!(
            v.str_member("n", "ctx"),
            Err("ctx: 'n' is not a string".to_string())
        );
        assert_eq!(
            v.bool_member("n", "ctx"),
            Err("ctx: 'n' is not a boolean".to_string())
        );
        assert_eq!(v.check_members(&["n", "x", "s", "b"], "ctx"), Ok(()));
        assert_eq!(
            v.check_members(&["n"], "ctx"),
            Err("ctx: unknown member 'x'".to_string())
        );
        assert_eq!(
            Value::Null.check_members(&[], "ctx"),
            Err("ctx: not an object".to_string())
        );
        assert_eq!(v.take_member("s", "ctx"), Ok(Value::Str("t".to_string())));
        assert_eq!(
            v.take_member("s", "ctx"),
            Err("ctx: missing 's'".to_string())
        );
    }

    #[test]
    fn the_writer_lays_out_objects_and_arrays() {
        let mut s = String::new();
        let mut o = Obj::lines(&mut s);
        o.str("format", "f").num("n", 1.5).bool("b", false);
        lines(o.key("rows"), [1u64, 2], num);
        lines(o.key("none"), Vec::<u64>::new(), num);
        array(o.key("xs"), ["a", "b"], string);
        o.raw("x", "null").end();
        assert_eq!(
            s,
            "{\"format\":\"f\",\n\"n\":1.5,\n\"b\":false,\n\"rows\":[\n1,\n2\n],\n\"none\":[\n],\
             \n\"xs\":[\"a\",\"b\"],\n\"x\":null}"
        );
        let mut s = String::new();
        Obj::lines(&mut s).num("a", 1u32).end_line();
        assert_eq!(s, "{\"a\":1\n}");
    }
}
