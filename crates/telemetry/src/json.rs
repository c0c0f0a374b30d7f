//! The workspace's one JSON codec: a [`Json`] value tree, a
//! recursive-descent parser, an emitter, and the typed field reader every
//! decoder is written on.
//!
//! The workspace policy is zero external runtime dependencies, so instead
//! of serde this module implements exactly what checkpoints, wire frames,
//! HTTP bodies and event lines need. Floats are written with Rust's
//! shortest-round-trip `Display`, so `f32` values survive a write/read
//! cycle bit-for-bit. It sits in the bottom crate so that [`crate::events`]
//! escapes strings through the same code as every other writer.
//!
//! Decoders read fields through [`Json::field`] / [`Json::opt_field`] (any
//! [`FromJson`] type) and their `_with` twins, which take the decode
//! function of a type defined in another crate. Every failure is an
//! `InvalidData` error naming the field.

use std::fmt::Write as _;
use std::io;

/// How deep arrays and objects may nest before [`parse`] gives up. The
/// deepest document the workspace writes is 7 levels (a `results` frame →
/// `items` → item → `run` → `test` → `predictions` → prediction), so the
/// cap never rejects our own output. Without it a few kilobytes of `[`
/// overflow a 2 MiB thread stack (≈ 2 350 levels in a debug build,
/// ≈ 8 150 in release) and abort the process; at 128 levels the parser's
/// recursion, and the recursive drop of what it built, stay a few percent
/// of that.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f32`, if numeric.
    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|n| n as f32)
    }

    /// The value as `usize`, if a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Required field `key` as a `T`. An absent or `null` field, one that
    /// is not a `T`, or a `self` that is not an object is `InvalidData`
    /// naming `key`; so for every reader below.
    pub fn field<T: FromJson>(&self, key: &str) -> io::Result<T> {
        self.field_with(key, |v| T::from_json(v).ok_or_else(|| mistyped::<T>(key)))
    }

    /// Optional field `key` as a `T`: absent or `null` is `None`.
    pub fn opt_field<T: FromJson>(&self, key: &str) -> io::Result<Option<T>> {
        self.opt_field_with(key, |v| T::from_json(v).ok_or_else(|| mistyped::<T>(key)))
    }

    /// Sets field `key` of an object to `value`, in place or appended:
    /// the one edit an in-memory format upgrade is made of.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.into(), value)),
            }
        }
    }

    /// `Ok` when this document, the contents of state file `file`, is at
    /// format `version` — the one a live loader reads; otherwise
    /// `InvalidData` carrying an [`UnknownVersion`].
    pub fn require_version(&self, file: &'static str, version: usize) -> io::Result<()> {
        let found = self.opt_field("version")?;
        if found == Some(version) {
            return Ok(());
        }
        let unknown = UnknownVersion { file, found, reads: version };
        Err(io::Error::new(io::ErrorKind::InvalidData, unknown))
    }

    /// Required field `key`, decoded by `read` — for types defined in
    /// other crates, which cannot implement [`FromJson`] there.
    pub fn field_with<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Json) -> io::Result<T>,
    ) -> io::Result<T> {
        self.opt_field_with(key, read)?.ok_or_else(|| invalid(format!("missing `{key}`")))
    }

    /// Optional field `key`, decoded by `read`: absent or `null` is `None`.
    pub fn opt_field_with<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Json) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        let Json::Obj(fields) = self else {
            return Err(invalid(format!("expected an object holding `{key}`")));
        };
        match fields.iter().find(|(k, _)| k == key) {
            None | Some((_, Json::Null)) => Ok(None),
            Some((_, v)) => read(v).map(Some),
        }
    }

    /// Required list field `key`, each element decoded by `read`, into
    /// any collection.
    pub fn list_with<T, C: FromIterator<T>>(
        &self,
        key: &str,
        read: impl FnMut(&Json) -> io::Result<T>,
    ) -> io::Result<C> {
        self.field_with(key, |v| v.items(key, read))
    }

    /// Optional list field `key`, each element decoded by `read`: absent
    /// or `null` is an empty collection.
    pub fn opt_list_with<T, C: FromIterator<T> + Default>(
        &self,
        key: &str,
        read: impl FnMut(&Json) -> io::Result<T>,
    ) -> io::Result<C> {
        Ok(self.opt_field_with(key, |v| v.items(key, read))?.unwrap_or_default())
    }

    /// This array's elements, each decoded by `read`, into any collection;
    /// `what` names the array when `self` is not one.
    pub fn items<T, C: FromIterator<T>>(
        &self,
        what: &str,
        read: impl FnMut(&Json) -> io::Result<T>,
    ) -> io::Result<C> {
        let items = self.as_arr().ok_or_else(|| invalid(format!("`{what}` must be a list")))?;
        items.iter().map(read).collect()
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes to compact JSON (`value.to_string()`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        if n == 0.0 && n.is_sign_negative() {
            out.push_str("-0");
        } else if n.fract() == 0.0 && n.abs() < 9e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a quoted JSON string: quote, backslash and
/// every control character escaped, everything else verbatim.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience constructors for emitting checkpoints.
pub mod build {
    use super::Json;

    /// An object from key/value pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A `usize` as a number.
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// An array of `f32`s.
    pub fn f32s(values: &[f32]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(f64::from(v))).collect())
    }

    /// An array of `usize`s.
    pub fn ints(values: &[usize]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
    }

    /// A string.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An optional `usize` (`null` when absent).
    pub fn opt_int(n: Option<usize>) -> Json {
        n.map_or(Json::Null, int)
    }
}

/// A parse failure with byte position and message.
#[derive(Debug)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A state file at a format version its live loader does not read: a
/// newer build's, or an older one's read without a migration.
#[derive(Debug)]
pub struct UnknownVersion {
    /// The file, e.g. `meta.json`.
    pub file: &'static str,
    /// Its `version` field; `None` when it has none.
    pub found: Option<usize>,
    /// The one version the loader reads.
    pub reads: usize,
}

impl std::fmt::Display for UnknownVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let found = self.found.map_or_else(|| "no version".into(), |v| format!("version {v}"));
        write!(f, "{} has {found}; this build reads version {}", self.file, self.reads)
    }
}

impl std::error::Error for UnknownVersion {}

/// A value the field reader can take out of a [`Json`] node.
pub trait FromJson: Sized {
    /// What a well-formed value is, for the error message
    /// (`"an unsigned integer"`).
    fn expected() -> String;

    /// The value, or `None` when `v` has the wrong type or range.
    fn from_json(v: &Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($(#[$doc:meta])* $t:ty: $expected:literal, $read:expr;)*) => {$(
        $(#[$doc])*
        impl FromJson for $t {
            fn expected() -> String {
                $expected.into()
            }

            fn from_json(v: &Json) -> Option<Self> {
                $read(v)
            }
        }
    )*};
}

from_json! {
    usize: "an unsigned integer", Json::as_usize;
    /// A decimal string or a number: JSON numbers go through `f64`, which
    /// cannot carry seeds and RNG words above 2^53, so writers put those
    /// in strings; hand-written documents may still use plain numbers.
    u64: "an unsigned integer", |v: &Json| v.as_str().map_or_else(|| v.as_u64(), |s| s.parse().ok());
    // Floats are finite only: the emitter writes a non-finite number as
    // `null`, so one read from `1e999` (or beyond `f32::MAX`) would not
    // read back.
    f32: "a finite number", |v: &Json| v.as_f32().filter(|x| x.is_finite());
    f64: "a finite number", |v: &Json| v.as_f64().filter(|x| x.is_finite());
    bool: "a boolean", Json::as_bool;
    String: "a string", |v: &Json| v.as_str().map(str::to_string);
}

impl<T: FromJson> FromJson for Vec<T> {
    fn expected() -> String {
        format!("a list, each element {}", T::expected())
    }

    fn from_json(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

/// An `InvalidData` error carrying `msg`.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn mistyped<T: FromJson>(key: &str) -> io::Error {
    invalid(format!("`{key}` must be {}", T::expected()))
}

/// Parses one JSON document, a parse failure as `InvalidData`.
///
/// # Errors
///
/// `InvalidData` carrying the [`JsonError`].
pub fn parse_doc(text: &str) -> io::Result<Json> {
    parse(text).map_err(|e| invalid(e.to_string()))
}

/// The JSON document in file `path`; `Ok(None)` when there is no file.
///
/// # Errors
///
/// Read failures other than absence, and malformed JSON.
pub fn read_doc(path: &std::path::Path) -> io::Result<Option<Json>> {
    match std::fs::read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        text => Ok(Some(parse_doc(&text?)?)),
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A [`JsonError`] on malformed input, trailing characters, or arrays
/// and objects nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { pos: self.pos, msg: msg.to_string() }
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
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
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `container` one nesting level down, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our own
                            // emitter; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain characters, copied whole. `"` and `\`
                    // are ASCII, so the run ends on a character boundary
                    // of the (valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err(&format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = build::obj(vec![
            ("id", build::int(7)),
            ("energy", build::num(1.25f32)),
            ("parent", Json::Null),
            ("ok", Json::Bool(true)),
            ("name", build::str("seed \"x\"\n")),
            ("data", build::f32s(&[0.1, -2.5, 3.0e-7])),
            ("shape", build::ints(&[1, 28, 28])),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn f32_survives_round_trip_exactly() {
        // Awkward values: subnormal-ish, repeating binary fractions, big.
        for &v in &[0.1f32, 1.0 / 3.0, 1.2345678e-20, 3.4e38, -0.0, 42.0] {
            let text = Json::Num(f64::from(v)).to_string();
            let back = parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v} -> {text}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn integers_emit_without_exponent() {
        assert_eq!(build::int(123456789).to_string(), "123456789");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn string_escapes_round_trip() {
        // Control characters, quotes, backslashes, tabs, multi-byte UTF-8.
        let awkward = "a\"b\\c\nd\re\tf\u{1}g\u{1f}héllo 日本語 🦀 \\\"nested\\\"";
        let text = Json::Str(awkward.to_string()).to_string();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), awkward);
        // Explicit escape forms parse to the same characters.
        assert_eq!(
            parse(r#""A\t\n\r\b\f\/\\\"""#).unwrap().as_str().unwrap(),
            "A\t\n\r\u{8}\u{c}/\\\""
        );
        // A lone surrogate cannot be a char; it maps to U+FFFD.
        assert_eq!(parse(r#""\ud800""#).unwrap().as_str().unwrap(), "\u{fffd}");
    }

    #[test]
    fn control_characters_always_escape() {
        let text = Json::Str("\u{0}\u{1f}".to_string()).to_string();
        assert_eq!(text, "\"\\u0000\\u001f\"");
    }

    /// `depth` alternating `[{"k":` pairs around a `1`: 2 × `depth` levels.
    fn nested(depth: usize) -> String {
        "[{\"k\":".repeat(depth) + "1" + &"}]".repeat(depth)
    }

    #[test]
    fn deeply_nested_values_parse() {
        // Nesting up to the cap parses; one level more does not.
        let depth = MAX_DEPTH / 2;
        let parsed = parse(&nested(depth)).unwrap();
        let mut v = &parsed;
        for _ in 0..depth {
            v = v.as_arr().unwrap()[0].get("k").unwrap();
        }
        assert_eq!(v.as_usize(), Some(1));
        assert!(parse(&format!("[{}]", nested(depth))).is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        // Each of these aborted a 2 MiB thread before the cap. They run on
        // such a thread, so a missing cap fails here instead of passing on
        // a bigger main-thread stack.
        let texts = ["[".repeat(20_000), nested(10_000), "{\"a\":".repeat(20_000)];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for text in &texts {
                    let err = parse(text).unwrap_err();
                    assert!(err.msg.contains("nested deeper"), "{err}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn the_reader_names_the_field() {
        let doc = parse(
            r#"{"n":3,"big":"18446744073709551615","x":0.5,"ok":true,"s":"hi","v":[1,2],"nil":null}"#,
        )
        .unwrap();
        assert_eq!(doc.field::<usize>("n").unwrap(), 3);
        assert_eq!(doc.field::<u64>("big").unwrap(), u64::MAX);
        assert_eq!(doc.field::<u64>("n").unwrap(), 3, "a plain number is a u64 too");
        assert_eq!(doc.field::<f32>("x").unwrap(), 0.5);
        assert!(doc.field::<bool>("ok").unwrap());
        assert_eq!(doc.field::<String>("s").unwrap(), "hi");
        assert_eq!(doc.field::<Vec<usize>>("v").unwrap(), vec![1, 2]);
        assert_eq!(doc.opt_field::<usize>("nil").unwrap(), None);
        assert_eq!(doc.opt_field::<usize>("absent").unwrap(), None);
        let absent: Vec<usize> = doc.opt_list_with("absent", |v| v.field("k")).unwrap();
        assert!(absent.is_empty());
        for (err, want) in [
            (doc.field::<usize>("absent").unwrap_err(), "missing `absent`"),
            (doc.field::<usize>("nil").unwrap_err(), "missing `nil`"),
            (doc.field::<usize>("x").unwrap_err(), "`x` must be an unsigned integer"),
            (doc.field::<u64>("s").unwrap_err(), "`s` must be an unsigned integer"),
            (doc.opt_field::<bool>("n").unwrap_err(), "`n` must be a boolean"),
            (
                doc.field::<Vec<String>>("v").unwrap_err(),
                "`v` must be a list, each element a string",
            ),
            (
                doc.list_with::<usize, Vec<_>>("s", |v| v.field("k")).unwrap_err(),
                "`s` must be a list",
            ),
            (Json::Arr(vec![]).field::<usize>("n").unwrap_err(), "expected an object holding `n`"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), want);
        }
        assert_eq!(parse_doc("{").unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn every_truncation_of_a_document_is_rejected() {
        let doc = r#"{"id":7,"e":-1.25e-3,"s":"a\"bA","a":[1,null,true],"o":{"k":false}}"#;
        assert!(parse(doc).is_ok());
        for cut in 1..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let prefix = &doc[..cut];
            assert!(parse(prefix).is_err(), "truncated doc parsed: `{prefix}`");
        }
    }

    #[test]
    fn truncated_unicode_escape_is_rejected() {
        assert!(parse(r#""\u00"#).is_err());
        assert!(parse(r#""\u00zz""#).is_err());
        assert!(parse(r#""\"#).is_err());
    }

    #[test]
    fn rejects_more_malformed_documents() {
        for bad in [
            "{\"a\" 1}",
            "{\"a\":}",
            "{,}",
            "[1 2]",
            "tru",
            "+1",
            "01a",
            "\u{7f}",
            "{\"a\":1}}",
            "--1",
            "1e",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed `{bad}`");
        }
    }
}
