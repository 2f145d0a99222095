//! Minimal self-contained JSON value type, parser and renderer.
//!
//! The offline workspace has no `serde`, so everything that speaks JSON —
//! the golden-fixture corpus in `tests/golden_search.rs`, the
//! `BENCH_*.json` summaries, and the `paradl-serve` wire protocol — shares
//! this one implementation instead of growing per-binary emitters.
//!
//! Design points:
//!
//! * **Deterministic bytes.** Objects are ordered `Vec`s (insertion order is
//!   preserved, never re-sorted), so rendering the same value twice produces
//!   byte-identical output — which is what lets the serve integration tests
//!   compare served answers against locally computed ones *as bytes*.
//! * **Shortest-round-trip floats.** Numbers render with Rust's `Display`
//!   for `f64`, the shortest decimal that reparses to the same bits. Blessed
//!   fixtures and wire frames therefore survive a parse→render cycle
//!   bit-exactly; tolerances in tests only absorb arithmetic drift, not
//!   serialization loss.
//! * **Cheap per value.** Rendering a ranked answer writes tens of thousands
//!   of keys, numbers and strings, so no value allocates on its way out:
//!   - object keys are `Cow<'static, str>`, so the fixed keys of an answer
//!     document are borrowed literals (parsed keys are `Cow::Owned`);
//!   - numbers are written in place through `fmt::Write`. Two fast paths
//!     skip the float formatter: `+0.0` writes `0`, and an integral value
//!     with |n| < 2^53 (never `-0.0`) writes its integer digits. Both give
//!     exactly the bytes of `Display` (a test pins this on random bit
//!     patterns). Every other number goes through `Display`, which is the
//!     floor of what rendering costs: on a 1 Ki `FullRank` answer it is
//!     over half of the remaining render time;
//!   - a string with no quote, backslash or control byte is copied in one
//!     `push_str`; only the others are escaped char by char.
//! * **Non-panicking parse.** [`Json::parse`] returns a [`JsonError`] with a
//!   byte offset instead of panicking, so a daemon can reject a malformed
//!   frame without dying. The panicking accessors ([`Json::req`],
//!   [`Json::as_str`], …) are sugar for tests and fixtures where a schema
//!   mismatch *should* abort loudly.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A parsed JSON value. Object fields keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object: ordered key/value pairs. Keys are usually `'static`
    /// literals; parsed keys are owned.
    Obj(Vec<(Cow<'static, str>, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// A number (JSON numbers are parsed as `f64`).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

/// Maximum container nesting [`Json::parse`] accepts. Real query/answer
/// documents nest fewer than 10 levels; the limit exists so a hostile frame
/// of unbounded `[[[…` returns a [`JsonError`] instead of overflowing the
/// parser's recursion stack (an uncatchable abort).
pub const MAX_PARSE_DEPTH: usize = 128;

/// A parse error: what went wrong and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input where the problem was detected.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    // -- construction sugar -------------------------------------------------

    /// An object from key/value pairs (insertion order is preserved).
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<Cow<'static, str>>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number from anything convertible to `f64` losslessly enough for the
    /// caller (counts in this workspace stay far below 2^53).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A number from a `usize` count.
    pub fn count(n: usize) -> Json {
        Json::Num(n as f64)
    }

    // -- non-panicking accessors -------------------------------------------

    /// Field `key` of an object (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn string(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn number(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn fields(&self) -> Option<&[(Cow<'static, str>, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The number as a non-negative integer count (`None` when missing,
    /// non-numeric, negative, not an integer, or too large for `usize`).
    pub fn usize(&self) -> Option<usize> {
        let n = self.number()?;
        // `usize::MAX as f64` rounds up to 2^64, which does not fit: the
        // bound is 2^BITS, exclusive (powers of two are exact in `powi`).
        if n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(usize::BITS as i32) {
            Some(n as usize)
        } else {
            None
        }
    }

    // -- panicking accessors (tests / fixtures) -----------------------------

    /// Field `key` of an object; panics with a readable message when the key
    /// is missing or `self` is not an object. Test/fixture sugar.
    pub fn req(&self, key: &str) -> &Json {
        match self {
            Json::Obj(_) => {
                self.get(key).unwrap_or_else(|| panic!("missing key {key:?} in {self:?}"))
            }
            other => panic!("expected object with key {key:?}, got {other:?}"),
        }
    }

    /// The string payload; panics on type mismatch. Test/fixture sugar.
    pub fn as_str(&self) -> &str {
        self.string().unwrap_or_else(|| panic!("expected string, got {self:?}"))
    }

    /// The numeric payload; panics on type mismatch. Test/fixture sugar.
    pub fn as_num(&self) -> f64 {
        self.number().unwrap_or_else(|| panic!("expected number, got {self:?}"))
    }

    /// The elements; panics on type mismatch. Test/fixture sugar.
    pub fn as_arr(&self) -> &[Json] {
        self.array().unwrap_or_else(|| panic!("expected array, got {self:?}"))
    }

    // -- parse / render -----------------------------------------------------

    /// Parses a JSON document. Never panics: malformed input (including
    /// truncated documents, bad escapes and trailing garbage) yields a
    /// [`JsonError`] with the offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(value)
    }

    /// Renders compactly (no whitespace), deterministically: object fields in
    /// insertion order, floats in shortest-round-trip form. Non-finite
    /// numbers (which JSON cannot express) render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Renders human-readably with 2-space indentation. Containers whose
    /// children are all scalars stay on one line (`{"a": 1, "b": 2}`), which
    /// is the layout the golden fixtures use for ranking entries; containers
    /// with nested containers get one field per line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Obj(_) | Json::Arr(_))
    }

    /// Whether any direct child is itself a container (forces the multi-line
    /// pretty layout).
    fn has_container_child(&self) -> bool {
        match self {
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.is_container()),
            Json::Arr(items) => items.iter().any(Json::is_container),
            _ => false,
        }
    }

    fn write_scalar(&self, out: &mut String) {
        match self {
            Json::Str(s) => write_escaped(out, s),
            Json::Num(n) => write_number(out, *n),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
            Json::Obj(_) | Json::Arr(_) => unreachable!("containers handled by callers"),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            scalar => scalar.write_scalar(out),
        }
    }

    /// One-line layout with spaces (`{"a": 1, "b": 2}` / `[1, 2]`), used for
    /// leaf containers in the pretty renderer.
    fn write_inline(&self, out: &mut String) {
        match self {
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_inline(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write_inline(out);
                }
                out.push(']');
            }
            scalar => scalar.write_scalar(out),
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        if !self.has_container_child() {
            self.write_inline(out);
            return;
        }
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    v.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            _ => unreachable!("scalars have no container children"),
        }
    }
}

/// 2^53: below it every integer is an exact `f64`, and `Display` writes an
/// integral value as its plain integer digits.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// Writes `n` with exactly the bytes of `format!("{n}")`, or `null` when it
/// is not finite. `+0.0` and integral values below 2^53 skip the float
/// formatter; `-0.0` does not (`Display` writes it as `-0`).
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_positive() {
        out.push('0');
    } else if n != 0.0 && n.fract() == 0.0 && n.abs() < EXACT_INT_BOUND {
        write!(out, "{}", n as i64).expect("writing to a String cannot fail");
    } else {
        write!(out, "{n}").expect("writing to a String cannot fail");
    }
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters. Strings that need no escape (every key and strategy
/// name of an answer) are copied whole.
fn write_escaped(out: &mut String, s: &str) {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        write_escaped_chars(out, s);
    } else {
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// The char-by-char escaper behind [`write_escaped`].
fn write_escaped_chars(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), at: self.pos }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| self.err("unexpected end of input"))
    }

    /// Consumes a literal keyword (`true`/`false`/`null`).
    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        // The parser recurses per nesting level, so a hostile frame of
        // 100k opening brackets would otherwise ride the recursion straight
        // into a stack overflow — an abort, not a catchable error. Depth is
        // bounded well above anything a real query or answer document
        // nests (< 10 levels).
        if depth >= MAX_PARSE_DEPTH {
            return Err(self.err(format!("nesting exceeds {MAX_PARSE_DEPTH} levels")));
        }
        match self.peek()? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((Cow::Owned(key), self.value(depth + 1)?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(self.err(format!("expected ',' or '}}', got {:?}", other as char)))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(self.err(format!("expected ',' or ']', got {:?}", other as char)))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8; continuation bytes follow).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// A `\uXXXX` escape, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("lone surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Exactly four ASCII hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let Some(text) = self.bytes.get(self.pos..end) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut v = 0;
        for &b in text {
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        match text.parse::<f64>() {
            // Reject overflowing exponents (`1e999` parses to Inf): a
            // non-finite literal must never reach a query field. Renders of
            // non-finite values emit `null`, so round-trips stay closed.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(n) => Err(JsonError {
                message: format!("non-finite number {text:?} (parses to {n})"),
                at: start,
            }),
            Err(_) => Err(JsonError { message: format!("bad number {text:?}"), at: start }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Numbers whose rendering takes each branch of `write_number`, and the
    /// bounds of its integer fast path.
    const EDGE_NUMBERS: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        EXACT_INT_BOUND - 1.0,
        -(EXACT_INT_BOUND - 1.0),
        EXACT_INT_BOUND,
        EXACT_INT_BOUND + 2.0, // 2^53 + 1 is not an f64; this is its neighbour
        -EXACT_INT_BOUND,
        1e300,
        -1e300,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        0.5,
        -1024.25,
    ];

    /// Asserts that `x` renders exactly as `Display` does (`null` when it is
    /// not finite).
    fn renders_like_display(x: f64) -> Result<(), TestCaseError> {
        let expected = if x.is_finite() { format!("{x}") } else { "null".to_string() };
        let rendered = Json::Num(x).render();
        prop_assert!(rendered == expected, "{:#018x}: {rendered} != {expected}", x.to_bits());
        Ok(())
    }

    /// The char-by-char escaper on its own.
    fn escaped_by_chars(s: &str) -> String {
        let mut out = String::new();
        write_escaped_chars(&mut out, s);
        out
    }

    /// Characters that take each arm of the escaper.
    const ESCAPE_POOL: [char; 14] =
        ['a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', 'λ', '💡'];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn numbers_render_like_display_on_random_bit_patterns(bits in 0u64..u64::MAX) {
            renders_like_display(f64::from_bits(bits))?;
        }

        #[test]
        fn integral_numbers_render_like_display(v in 0u64..(1 << 55), neg in 0u32..2, scale in 0u32..4) {
            // Integers around the 2^53 fast-path bound, and small ones.
            let x = (v >> (scale * 16)) as f64;
            renders_like_display(if neg == 1 { -x } else { x })?;
        }

        #[test]
        fn escape_fast_path_equals_the_char_escaper(
            picks in (0u64..u64::MAX, 0u64..u64::MAX, 0usize..24),
        ) {
            let (a, b, len) = picks;
            // Plain strings (fast path) and strings with escapes (slow path).
            let pool: &[char] = if len % 2 == 0 { &ESCAPE_POOL[..4] } else { &ESCAPE_POOL };
            let s: String = (0..len)
                .map(|i| {
                    let r = if i < 12 { a >> (i * 5) } else { b >> ((i - 12) * 5) };
                    pool[r as usize % pool.len()]
                })
                .collect();
            let rendered = Json::str(s.as_str()).render();
            prop_assert!(rendered == escaped_by_chars(&s), "{s:?}: {rendered}");
            prop_assert!(Json::parse(&rendered).unwrap().as_str() == s);
        }
    }

    #[test]
    fn edge_numbers_render_like_display() {
        for x in EDGE_NUMBERS {
            renders_like_display(x).unwrap();
        }
        assert_eq!(Json::Num(-0.0).render(), "-0");
        assert_eq!(Json::Num(0.0).render(), "0");
        for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(x).render(), "null");
        }
    }

    #[test]
    fn escape_fast_path_equals_the_char_escaper_on_edge_strings() {
        for s in [
            "",
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "tab\tnl\n",
            "é λ 💡",
            "ctrl\u{1}\u{7f}",
        ] {
            assert_eq!(Json::str(s).render(), escaped_by_chars(s), "{s:?}");
        }
    }

    #[test]
    fn parses_and_renders_all_value_kinds() {
        let text = r#"{"s": "hi", "n": 1.5, "i": 42, "b": true, "no": false, "z": null, "a": [1, 2], "o": {"k": "v"}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.req("s").as_str(), "hi");
        assert_eq!(v.req("n").as_num(), 1.5);
        assert_eq!(v.req("i").usize(), Some(42));
        assert_eq!(v.req("b").boolean(), Some(true));
        assert_eq!(v.req("no").boolean(), Some(false));
        assert!(v.req("z").is_null());
        assert_eq!(v.req("a").as_arr().len(), 2);
        assert_eq!(v.req("o").req("k").as_str(), "v");
        // Compact render round-trips to the same value.
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        // Pretty render too.
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.0, 1.0, -1.5, 1.0 / 3.0, 6.02e23, 1e-300, f64::MAX, 5e-324] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap().as_num();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {rendered}");
        }
        // Non-finite values cannot be expressed in JSON: they render as null.
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in
            ["plain", "with \"quotes\"", "back\\slash", "tab\tnl\n", "unicode é λ 💡", "ctrl\u{1}"]
        {
            let rendered = Json::str(s).render();
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), s, "via {rendered}");
        }
        // Standard escapes parse.
        assert_eq!(Json::parse(r#""\u0041\u00e9\ud83d\udca1\/""#).unwrap().as_str(), "Aé💡/");
    }

    #[test]
    fn malformed_input_errors_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "nul",
            "truely",
            "1.2.3",
            "{\"a\" 1}",
            "[1 2]",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\ud800\"",
            "--5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn overflowing_exponents_are_a_parse_error_not_an_inf() {
        for bad in ["1e999", "-1e999", "1e400", "[1e309]", "{\"beta\": -1.5e999}"] {
            let err = Json::parse(bad).expect_err(&format!("{bad:?} must not parse"));
            assert!(err.message.contains("non-finite"), "{bad:?}: {}", err.message);
        }
        // The largest finite doubles still parse.
        for good in ["1e308", "-1.7976931348623157e308", "1e-999"] {
            let v = Json::parse(good).expect(good);
            assert!(v.as_num().is_finite(), "{good:?} should stay finite");
        }
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing_the_stack() {
        // 100k nested arrays: without the depth limit this rides the
        // parser's recursion into a stack overflow (process abort). With
        // it, a plain JsonError.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let hostile = format!("{}0{}", open.repeat(100_000), close.repeat(100_000));
            let err = Json::parse(&hostile).expect_err("hostile nesting must not parse");
            assert!(err.message.contains("nesting exceeds"), "{err}");
        }
        // Sane nesting short of the limit still parses.
        let deep =
            format!("{}0{}", "[".repeat(MAX_PARSE_DEPTH - 1), "]".repeat(MAX_PARSE_DEPTH - 1));
        assert!(Json::parse(&deep).is_ok());
        // And exactly at the limit fails (the boundary is pinned).
        let at_limit =
            format!("{}0{}", "[".repeat(MAX_PARSE_DEPTH + 1), "]".repeat(MAX_PARSE_DEPTH + 1));
        assert!(Json::parse(&at_limit).is_err());
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = Json::obj([("z", Json::count(1)), ("a", Json::count(2))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
        let parsed = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(parsed, v);
        // Deterministic: two renders of the same value are byte-identical.
        assert_eq!(parsed.render(), parsed.render());
    }

    #[test]
    fn pretty_layout_inlines_leaf_containers() {
        let v = Json::obj([
            ("model", Json::str("m")),
            (
                "cells",
                Json::Arr(vec![Json::obj([
                    ("batch", Json::count(256)),
                    (
                        "top",
                        Json::Arr(vec![Json::obj([
                            ("strategy", Json::str("data(p=64)")),
                            ("pes", Json::count(64)),
                        ])]),
                    ),
                ])]),
            ),
        ]);
        let expected = "{\n  \"model\": \"m\",\n  \"cells\": [\n    {\n      \"batch\": 256,\n      \"top\": [\n        {\"strategy\": \"data(p=64)\", \"pes\": 64}\n      ]\n    }\n  ]\n}";
        assert_eq!(v.render_pretty(), expected);
    }

    #[test]
    fn non_object_accessors_return_none() {
        let v = Json::parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.string().is_none());
        assert!(v.number().is_none());
        assert!(v.fields().is_none());
        assert_eq!(Json::Num(-1.0).usize(), None);
        assert_eq!(Json::Num(1.5).usize(), None);
        assert_eq!(Json::Num(7.0).usize(), Some(7));
    }

    #[test]
    fn usize_rejects_values_from_the_first_that_does_not_fit() {
        // The largest f64 below 2^BITS fits; 2^BITS itself (which is what
        // `usize::MAX as f64` rounds to on 64-bit targets) does not.
        let bound = 2f64.powi(usize::BITS as i32);
        let below = f64::from_bits(bound.to_bits() - 1);
        assert_eq!(Json::Num(below).usize(), Some(below as usize));
        assert_eq!(Json::Num(bound).usize(), None);
        assert_eq!(Json::Num(bound * 2.0).usize(), None);
        if usize::BITS == 64 {
            assert_eq!(Json::parse("18446744073709549568").unwrap().usize(), Some(below as usize));
            for text in ["18446744073709551615", "18446744073709551616"] {
                assert_eq!(Json::parse(text).unwrap().usize(), None, "{text}");
            }
        }
    }
}
