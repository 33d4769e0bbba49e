//! Dependency-free JSON tree, writer, and parser.
//!
//! The run ledger and reports here — and the scenario catalog and
//! scorecard one crate up (which re-exports this module as
//! `scenario_fleet::json` for source compatibility) — need
//! (de)serialization, and this build environment cannot fetch `serde`
//! (see `vendor/README.md`), so the workspace carries its own ~minimal
//! JSON layer. Two properties matter here beyond correctness:
//!
//! * **Deterministic output** — objects preserve insertion order and
//!   numbers render via Rust's shortest-round-trip float formatting, so
//!   the same value tree always produces byte-identical text (the fleet
//!   determinism tests assert this across thread counts).
//! * **Round-trip fidelity** — `parse(render(v)) == v` for every value
//!   the crate produces (property-tested in the catalog).

use std::fmt::Write as _;

/// A parse failure with the byte offset where parsing stopped.
///
/// Artifact loaders (scorecard shards, run reports, harness envelopes)
/// wrap this into their own typed errors so a truncated or bit-flipped
/// file is reported as "`<artifact>: <what> at byte <where>`" instead of
/// an anonymous string — or worse, a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed. For truncation
    /// ("unexpected end of input") this is the input length.
    pub offset: usize,
    /// What went wrong, without the offset (Display appends it).
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A JSON value. Objects are ordered vectors, not maps: order in ==
/// order out.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field helpers for deserialization error messages.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Required numeric field.
    pub fn req_num(&self, key: &str) -> Result<f64, String> {
        self.req(key)?
            .as_num()
            .ok_or_else(|| format!("field {key:?} must be a number"))
    }

    /// Required non-negative integer field: rejects negative and
    /// fractional numbers instead of silently truncating them, so a
    /// scenario runs with exactly the parameters its author wrote.
    pub fn req_index(&self, key: &str) -> Result<u64, String> {
        let value = self.req_num(key)?;
        // Strict `< 2^64`: `u64::MAX as f64` rounds *up* to 2^64, so a
        // `<=` bound would admit exactly 2^64 and saturate.
        if !(value.is_finite()
            && value >= 0.0
            && value.fract() == 0.0
            && value < 18_446_744_073_709_551_616.0)
        {
            return Err(format!(
                "field {key:?} must be a non-negative integer, got {value}"
            ));
        }
        Ok(value as u64)
    }

    /// Required string field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} must be a string"))
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON indented by two spaces.
    pub fn render_pretty(&self) -> String {
        let mut out = self.render_pretty_at(0);
        out.push('\n');
        out
    }

    /// Renders this value the way [`Json::render_pretty`] writes it
    /// when it sits `depth` containers deep in a larger document:
    /// nested lines are indented relative to `depth`, and the text has
    /// neither leading indentation nor a trailing newline. Lets a caller
    /// render a document's subtrees separately (in parallel, say) and
    /// splice them into the whole byte for byte.
    pub fn render_pretty_at(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), depth);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        // A line break indented to `level`, written in place; nothing in
        // compact mode.
        let newline = |out: &mut String, level: usize| {
            if let Some(w) = indent {
                out.push('\n');
                push_spaces(out, w * level);
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        Self::parse_located(text).map_err(|e| e.to_string())
    }

    /// Parses a JSON document, reporting failures as a structured
    /// [`JsonError`] carrying the byte offset.
    pub fn parse_located(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing input"));
        }
        Ok(value)
    }
}

/// Runs of spaces are pushed as slices of this, not one char at a time.
const SPACES: &str = "                                                                ";

fn push_spaces(out: &mut String, mut count: usize) {
    while count > 0 {
        let run = count.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        count -= run;
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no inf/nan; scorecard metrics are all finite, but a
        // total function keeps the writer panic-free.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        write_int(out, x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Decimal digits of `n`, as `write!(out, "{n}")` spells them.
fn write_int(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Writes `s` quoted, copying each run of characters that need no
/// escape as one slice. Every escaped character is ASCII, so the runs
/// are cut on character boundaries.
fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut plain = 0;
    for (at, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[plain..at]);
        plain = at + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Reads four hex digits starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| JsonError::at(bytes.len(), "truncated \\u escape"))?;
    let text =
        std::str::from_utf8(hex).map_err(|e| JsonError::at(at, format!("bad \\u escape: {e}")))?;
    u32::from_str_radix(text, 16)
        .map_err(|_| JsonError::at(at, format!("bad \\u escape digits {text:?}")))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == token {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected {:?}", token as char)))
    }
}

/// Nesting ceiling for the recursive parser: scenario/scorecard
/// documents are a few levels deep; a malformed or hostile file must
/// return `Err`, not blow the stack.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(bytes.len(), "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key_at = *pos;
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(JsonError::at(key_at, "object key must be a string")),
                };
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err(JsonError::at(bytes.len(), "unterminated string")),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let code = parse_hex4(bytes, *pos + 1)?;
                                *pos += 4;
                                let scalar = match code {
                                    // High surrogate: standard JSON
                                    // encodes non-BMP characters as a
                                    // \uD8xx\uDCxx pair (serde_json and
                                    // Python's ensure_ascii both emit
                                    // these) — combine it.
                                    0xD800..=0xDBFF => {
                                        if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                            return Err(JsonError::at(
                                                *pos,
                                                format!("lone high surrogate \\u{code:04x}"),
                                            ));
                                        }
                                        let low = parse_hex4(bytes, *pos + 3)?;
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err(JsonError::at(
                                                *pos,
                                                format!("invalid low surrogate \\u{low:04x}"),
                                            ));
                                        }
                                        *pos += 6;
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    0xDC00..=0xDFFF => {
                                        return Err(JsonError::at(
                                            *pos,
                                            format!("lone low surrogate \\u{code:04x}"),
                                        ))
                                    }
                                    code => code,
                                };
                                s.push(char::from_u32(scalar).ok_or_else(|| {
                                    JsonError::at(*pos, format!("invalid \\u{scalar:04x}"))
                                })?);
                            }
                            other => {
                                return Err(JsonError::at(*pos, format!("bad escape {other:?}")))
                            }
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy the run of plain bytes up to the next quote
                        // or escape as one slice. The input is a `&str`
                        // and the run is cut at ASCII bytes, so it is
                        // valid UTF-8, and validating it costs only its
                        // own length: parsing stays linear.
                        let start = *pos;
                        while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                            *pos += 1;
                        }
                        let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| {
                            JsonError::at(start + e.valid_up_to(), format!("invalid UTF-8: {e}"))
                        })?;
                        s.push_str(run);
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|e| JsonError::at(start, format!("invalid UTF-8: {e}")))?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| JsonError::at(start, format!("invalid number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("désert \"dry\"\n".to_string())),
            ("days", Json::Num(40.0)),
            ("mape", Json::Num(0.1234567890123)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5), Json::Str("x".into())]),
            ),
        ]);
        let compact = doc.render();
        let pretty = doc.render_pretty();
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn pretty_rendering_is_pinned_at_any_depth() {
        let doc = Json::obj([
            (
                "a",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::obj([("b", Json::Null)]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("c", Json::Obj(vec![])),
        ]);
        assert_eq!(
            doc.render_pretty(),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": null\n    },\n    []\n  ],\n  \"c\": {}\n}\n"
        );

        // 90 levels: the innermost line is indented by 180 spaces, deeper
        // than any fixed pad buffer a renderer might slice from.
        let mut deep = Json::Str("core".to_string());
        for level in 0..90 {
            deep = if level % 2 == 0 {
                Json::Arr(vec![deep])
            } else {
                Json::obj([("k", deep)])
            };
        }
        let rendered = deep.render_pretty();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 181);
        assert_eq!(rendered.len(), 16_792);
        assert_eq!(lines[90], format!("{}\"core\"", " ".repeat(180)));
        for (row, line) in lines.iter().enumerate() {
            let depth = row.min(180 - row);
            let indent = line.len() - line.trim_start().len();
            assert_eq!(indent, 2 * depth, "line {row}: {line:?}");
        }
        assert_eq!(Json::parse(&rendered).unwrap(), deep);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(40.0).render(), "40");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn output_is_deterministic() {
        let doc = Json::obj([("b", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(doc.render(), doc.render());
        assert_eq!(doc.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2", "{1: 2}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn located_errors_carry_byte_offsets() {
        // Truncation points at the end of input.
        let err = Json::parse_located("{\"a\": 1").unwrap_err();
        assert_eq!(err.offset, 7, "{err}");
        // A mid-document syntax error points at the offending byte.
        let err = Json::parse_located(r#"{"a": 1 "b": 2}"#).unwrap_err();
        assert_eq!(err.offset, 8, "{err}");
        // Display appends the offset so string-typed surfaces keep it.
        assert!(err.to_string().contains("at byte 8"), "{err}");
        // Trailing garbage after a complete value.
        let err = Json::parse_located("1 2").unwrap_err();
        assert_eq!(err.offset, 2, "{err}");
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let hostile = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A document at reasonable depth still parses.
        let fine = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn req_index_rejects_negative_and_fractional() {
        let doc =
            Json::parse(r#"{"a": -5, "b": 2.9, "c": 40, "d": 1e20, "e": 18446744073709551616}"#)
                .unwrap();
        assert!(doc.req_index("a").is_err());
        assert!(doc.req_index("b").is_err());
        assert_eq!(doc.req_index("c").unwrap(), 40);
        assert!(doc.req_index("d").is_err());
        // Exactly 2^64: would saturate through `as u64` if admitted.
        assert!(doc.req_index("e").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_characters() {
        // A sun-with-face emoji (U+1F31E), escaped the way serde_json /
        // Python's ensure_ascii emit non-BMP characters.
        let doc = Json::parse(r#""\ud83c\udf1e clear""#).unwrap();
        assert_eq!(doc, Json::Str("\u{1F31E} clear".to_string()));
        // BMP escapes still work.
        assert_eq!(
            Json::parse(r#""\u00e9""#).unwrap(),
            Json::Str("\u{e9}".to_string())
        );
        // Lone or malformed surrogates are rejected.
        for bad in [
            r#""\ud83c""#,
            r#""\ud83cAB""#,
            r#""\ud83cA""#,
            r#""\udf1e""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // Over 4 MB of long multi-byte strings with escapes. A parser
        // that re-validates the rest of the input for every character
        // takes minutes on this in a debug build; a linear one well
        // under a second. No timer, so nothing to flake: a quadratic
        // regression shows as a hung test.
        let line = "d\u{e9}sert \"dry\" \u{2600} \u{1F31E} \\ clear\n".repeat(64);
        let doc = Json::Arr(
            (0..2_000)
                .map(|i| Json::obj([("k", Json::Str(format!("{i}:{line}")))]))
                .collect(),
        );
        let text = doc.render();
        assert!(text.len() >= 4 << 20, "only {} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"site": {"preset": "PFCI"}, "days": 40}"#).unwrap();
        assert_eq!(doc.req_num("days").unwrap(), 40.0);
        assert_eq!(doc.req("site").unwrap().req_str("preset").unwrap(), "PFCI");
        assert!(doc.req_str("days").is_err());
        assert!(doc.req("missing").is_err());
    }

    /// Characters covering every string path: ASCII, two-, three- and
    /// four-byte UTF-8, the short escapes, and control characters the
    /// writer spells as `\u00XX` (DEL is not one).
    const CHARS: [char; 17] = [
        'a',
        'Z',
        ' ',
        '\u{e9}',
        '\u{20ac}',
        '\u{2600}',
        '\u{1F31E}',
        '"',
        '\\',
        '\n',
        '\t',
        '\r',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        '/',
    ];

    fn text(codes: &[u8]) -> String {
        codes
            .iter()
            .map(|&code| CHARS[code as usize % CHARS.len()])
            .collect()
    }

    /// Appends `value` to an open container, keyed by `key` in an object.
    fn append(container: &mut Json, key: &[u8], value: Json) {
        match container {
            Json::Arr(items) => items.push(value),
            Json::Obj(pairs) => pairs.push((text(key), value)),
            _ => unreachable!("only containers are open"),
        }
    }

    /// Numbers at the writer's edges: the largest integers it spells
    /// without a fraction, the first it hands to float formatting,
    /// negative zero, and values far from 1.
    const EDGE_NUMBERS: [f64; 12] = [
        9_007_199_254_740_991.0,
        -9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        -0.0,
        -1.0,
        7.0,
        0.1,
        -2.5e-7,
        1e300,
        5e-324,
        i64::MIN as f64,
    ];

    /// Folds `ops` into a document: each op appends a scalar to the
    /// innermost open container, or opens one (while fewer than
    /// `max_depth` are open) or closes one. Whatever is still open
    /// closes at the end.
    fn document(ops: &[(u8, Vec<u8>, f64)], max_depth: usize) -> Json {
        let mut open = vec![Json::Arr(Vec::new())];
        for (kind, codes, x) in ops {
            let value = match kind {
                0 | 1 => Json::Str(text(codes)),
                2 => Json::Num(*x),
                3 => Json::Num(x.round()),
                4 => Json::Bool(codes.len() % 2 == 0),
                5 => Json::Null,
                6 if open.len() < max_depth => {
                    open.push(if codes.len() % 2 == 0 {
                        Json::Arr(Vec::new())
                    } else {
                        Json::Obj(Vec::new())
                    });
                    continue;
                }
                8 => Json::Num(EDGE_NUMBERS[codes.len() % EDGE_NUMBERS.len()]),
                _ if open.len() > 1 => open.pop().expect("nested"),
                _ => continue,
            };
            append(open.last_mut().expect("root"), codes, value);
        }
        while open.len() > 1 {
            let closed = open.pop().expect("nested");
            append(open.last_mut().expect("root"), b"", closed);
        }
        open.pop().expect("root")
    }

    /// The character-at-a-time writer the slice-pushing one replaced,
    /// kept as the byte-for-byte reference for both renderings.
    fn reference_write(value: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, level: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * level));
            }
        };
        match value {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if *x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => reference_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    reference_write(item, out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    reference_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    reference_write(value, out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    fn reference_str(out: &mut String, s: &str) {
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

    #[test]
    fn writer_matches_the_reference_on_edge_values() {
        let doc = Json::Arr(
            EDGE_NUMBERS
                .iter()
                .map(|&x| Json::Num(x))
                .chain([f64::NAN, f64::INFINITY].map(Json::Num))
                .chain([Json::Str(CHARS.iter().collect())])
                .collect(),
        );
        let mut compact = String::new();
        reference_write(&doc, &mut compact, None, 0);
        assert_eq!(doc.render(), compact);
        assert!(compact.contains("9007199254740991,-9007199254740991,9007199254740992,"));
        assert!(compact.contains(",0,-1,7,0.1,"), "-0.0 spells 0: {compact}");
        assert!(
            compact.contains("\\u0000\\u0001\\u001f\u{7f}/"),
            "{compact}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_both_renderings(ops in proptest::collection::vec(
            (0u8..8, proptest::collection::vec(0u8..17, 0..24), -1e6f64..1e6),
            0..60,
        )) {
            let doc = document(&ops, 8);
            prop_assert_eq!(Json::parse(&doc.render()).unwrap(), doc.clone());
            prop_assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
        }

        /// `parse` ignores whitespace, so the round trip above cannot see
        /// a writer change; this pins both renderings to the reference
        /// writer byte for byte, at every depth `render_pretty_at` starts
        /// from, with containers nested deeper (2 spaces a level) than
        /// the writer's slice of spaces is long.
        #[test]
        fn renderings_equal_the_reference_writer(ops in proptest::collection::vec(
            (0u8..9, proptest::collection::vec(0u8..17, 0..24), -1e17f64..1e17),
            0..120,
        ), depth in 0usize..40) {
            let doc = document(&ops, 48);
            let mut compact = String::new();
            reference_write(&doc, &mut compact, None, 0);
            prop_assert_eq!(doc.render(), compact);
            let mut pretty = String::new();
            reference_write(&doc, &mut pretty, Some(2), 0);
            pretty.push('\n');
            prop_assert_eq!(doc.render_pretty(), pretty);
            let mut nested = String::new();
            reference_write(&doc, &mut nested, Some(2), depth);
            prop_assert_eq!(doc.render_pretty_at(depth), nested);
        }
    }
}
