//! The workspace's one JSON codec: a [`Json`] value, one parser and one
//! writer (compact or indented).
//!
//! Its users are the resume journal ([`crate::journal`]), the benchmark
//! history ([`crate::history`]) and the `perfstat`/`kv_bench` snapshot
//! files. The workspace has no serialization dependency: this module is
//! the codec, not a fallback for one.
//!
//! Objects keep their keys in insertion order, and a number keeps its
//! literal text: a `u64` such as `u64::MAX` comes back unchanged instead
//! of passing through `f64`, and a rate written with one decimal is read
//! back as written. So `parse(&v.write()) == Some(v)` for every value the
//! constructors build.

use std::fmt::Write as _;
use std::iter::Peekable;
use std::str::Chars;

/// Nesting deeper than this is rejected, so a hostile line cannot
/// overflow the parser's stack.
const MAX_DEPTH: usize = 128;

/// One JSON value (booleans are not used by any writer here and are not
/// parsed).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A number, as its JSON literal text.
    Num(String),
    /// A string.
    Str(String),
    /// `null`.
    Null,
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v.to_string())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// `v` with `decimals` digits after the point; `null` when `v` is not
    /// finite (JSON has no NaN or infinity).
    pub fn fixed(v: f64, decimals: usize) -> Self {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// The value under key `k`, if this is an object that has one.
    pub fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(n, _)| n == k).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This number as a `u64`, exactly (no `f64` detour).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// This number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// This string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The compact form, on one line: the journal and history line format.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, None);
        out
    }

    /// The indented form (two spaces per level, trailing newline): the
    /// snapshot file format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends this value; `indent` is the current depth when indenting.
    fn emit(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => quote(out, s),
            Json::Arr(items) => {
                emit_seq(out, indent, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Json::Obj(fields) => {
                emit_seq(
                    out,
                    indent,
                    ('{', '}'),
                    fields.iter().map(|(k, v)| (Some(k), v)),
                );
            }
        }
    }
}

/// Appends an array (`key` always `None`) or an object's members.
fn emit_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: impl Iterator<Item = (Option<&'a String>, &'a Json)>,
) {
    let inner = indent.map(|d| d + 1);
    let mut empty = true;
    out.push(open);
    for (key, v) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, inner);
        if let Some(k) = key {
            quote(out, k);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        v.emit(out, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Appends `s` as a JSON string: `"`, `\` and control characters escaped.
fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document. `None` on any syntax error or trailing
/// input, so a torn or garbled line is rejected whole.
pub fn parse(text: &str) -> Option<Json> {
    let mut p = Parser {
        chars: text.chars().peekable(),
    };
    let v = p.value(0)?;
    p.skip_ws();
    p.chars.peek().is_none().then_some(v)
}

/// Recursive-descent reader over the document's characters.
struct Parser<'a> {
    chars: Peekable<Chars<'a>>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.chars.next_if(char::is_ascii_whitespace).is_some() {}
    }

    /// Consumes `c` (after whitespace) if it comes next.
    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        self.chars.next_if_eq(&c).is_some()
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.skip_ws();
        match *self.chars.peek()? {
            '{' => self.object(depth),
            '[' => self.array(depth),
            '"' => self.string().map(Json::Str),
            'n' => "null"
                .chars()
                .all(|c| self.chars.next() == Some(c))
                .then_some(Json::Null),
            '-' | '0'..='9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self, depth: usize) -> Option<Json> {
        self.chars.next(); // `{`
        let mut fields = Vec::new();
        if self.eat('}') {
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            if !self.eat(':') {
                return None;
            }
            fields.push((k, self.value(depth + 1)?));
            if self.eat('}') {
                return Some(Json::Obj(fields));
            }
            if !self.eat(',') {
                return None;
            }
        }
    }

    fn array(&mut self, depth: usize) -> Option<Json> {
        self.chars.next(); // `[`
        let mut items = Vec::new();
        if self.eat(']') {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if self.eat(']') {
                return Some(Json::Arr(items));
            }
            if !self.eat(',') {
                return None;
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.chars.next()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(out),
                '\\' => out.push(match self.chars.next()? {
                    '"' => '"',
                    '\\' => '\\',
                    '/' => '/',
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => self.unicode_escape()?,
                    _ => return None,
                }),
                c => out.push(c),
            }
        }
    }

    /// The character of a `\u` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Option<char> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi);
        }
        if self.chars.next()? != '\\' || self.chars.next()? != 'u' {
            return None;
        }
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return None;
        }
        char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
    }

    fn hex4(&mut self) -> Option<u32> {
        (0..4).try_fold(0, |acc, _| {
            Some(acc * 16 + self.chars.next()?.to_digit(16)?)
        })
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?`, kept as text.
    fn number(&mut self) -> Option<Json> {
        let mut text = String::new();
        text.extend(self.chars.next_if_eq(&'-'));
        self.digits(&mut text)?;
        if let Some(point) = self.chars.next_if_eq(&'.') {
            text.push(point);
            self.digits(&mut text)?;
        }
        if let Some(e) = self.chars.next_if(|c| matches!(c, 'e' | 'E')) {
            text.push(e);
            text.extend(self.chars.next_if(|c| matches!(c, '+' | '-')));
            self.digits(&mut text)?;
        }
        Some(Json::Num(text))
    }

    /// Appends a run of at least one ASCII digit to `text`.
    fn digits(&mut self, text: &mut String) -> Option<()> {
        let start = text.len();
        while let Some(d) = self.chars.next_if(char::is_ascii_digit) {
            text.push(d);
        }
        (text.len() > start).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u64_max_and_fixed_rates_round_trip_exactly() {
        let v = Json::obj(vec![
            ("max", Json::from(u64::MAX)),
            ("rate", Json::fixed(647_990.5, 1)),
            ("nan", Json::fixed(f64::NAN, 3)),
        ]);
        let text = v.write();
        assert_eq!(
            text,
            "{\"max\":18446744073709551615,\"rate\":647990.5,\"nan\":null}"
        );
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(back.get("rate").and_then(Json::as_f64), Some(647_990.5));
    }

    #[test]
    fn standard_escapes_and_surrogate_pairs_decode() {
        let v = parse(r#""q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \u{8}\u{c}\n\r\t é 😀"));
        let s = "\"\\\u{1}\u{8}\u{c}\n\r\t é";
        assert_eq!(Json::from(s).write(), r#""\"\\\u0001\b\f\n\r\t é""#);
        assert_eq!(parse(&Json::from(s).write()), Some(Json::from(s)));
    }

    #[test]
    fn numbers_floats_and_whitespace_parse() {
        let v = parse(" { \"a\" : [ -1.5e-3 , 0 , 2E+10 ] , \"b\" : null } ").expect("parses");
        let a = v.get("a").expect("has a");
        assert_eq!(
            *a,
            Json::Arr(vec![
                Json::Num("-1.5e-3".into()),
                Json::Num("0".into()),
                Json::Num("2E+10".into()),
            ])
        );
        assert_eq!(Json::Num("-1.5e-3".into()).as_f64(), Some(-0.0015));
        assert_eq!(Json::Num("-1".into()).as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"a\":1",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "\"open",
            "\"\\x\"",
            "\"\\ud83d\"",
            "1.",
            "-",
            "1e",
            "nul",
            "true",
            "{} {}",
            "{\"a\":1}x",
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert_eq!(parse(&deep), None);
    }

    #[test]
    fn pretty_form_indents_two_spaces() {
        let v = Json::obj(vec![
            ("scale", Json::from("quick")),
            (
                "benches",
                Json::Arr(vec![Json::from("mcf"), Json::from("lbm")]),
            ),
            ("empty", Json::Arr(vec![])),
            (
                "runs",
                Json::Arr(vec![Json::obj(vec![("shards", Json::from(4))])]),
            ),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"scale\": \"quick\",\n  \"benches\": [\n    \"mcf\",\n    \"lbm\"\n  ],\n  \
             \"empty\": [],\n  \"runs\": [\n    {\n      \"shards\": 4\n    }\n  ]\n}\n"
        );
        assert_eq!(parse(&v.pretty()), Some(v));
    }

    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A short string over quotes, backslashes, control and multi-byte
    /// characters.
    fn text(seed: &mut u64) -> String {
        const ALPHABET: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '\t', '\n', '\u{1}', 'é', '€', '😀',
        ];
        (0..splitmix(seed) % 6)
            .map(|_| ALPHABET[(splitmix(seed) % 12) as usize])
            .collect()
    }

    /// A random value of bounded depth.
    fn arbitrary(seed: &mut u64, depth: u32) -> Json {
        let len = splitmix(seed) % 4;
        match splitmix(seed) % if depth == 0 { 4 } else { 6 } {
            0 => Json::Null,
            1 => Json::from(splitmix(seed)),
            2 => Json::fixed(splitmix(seed) as f64 / 1e6 - 9e12, len as usize),
            3 => Json::Str(text(seed)),
            4 => Json::Arr((0..len).map(|_| arbitrary(seed, depth - 1)).collect()),
            _ => Json::Obj(
                (0..len)
                    .map(|_| (text(seed), arbitrary(seed, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_write(seed in any::<u64>()) {
            let mut s = seed;
            let v = arbitrary(&mut s, 4);
            prop_assert_eq!(parse(&v.write()), Some(v.clone()));
            prop_assert_eq!(parse(&v.pretty()), Some(v));
        }
    }
}
