//! Typed request/response bodies and the hand-rolled JSON layer.
//!
//! Encoding is exact and minimal (the few shapes the API returns);
//! decoding is a small recursive-descent parser that is *tolerant* in the
//! HTTP sense — unknown fields are ignored, field order is free, and
//! whitespace is insignificant — but strict about JSON grammar itself, so
//! a malformed body is always a clean 400 rather than a partial parse.
//!
//! `POST /ingest` bodies, the data plane, are decoded in one streaming
//! pass ([`IngestRequest::decode`]): the first `items` array goes straight
//! into a `Vec<u64>`, with plain digit runs read as integers and every
//! other element, field and value handed to the same grammar that
//! [`parse_json`] uses. Its result and error text always equal those of
//! the tree decode ([`parse_json`], then `get("items")`, then
//! [`JsonValue::as_u64`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth the decoder accepts (the API's types need 3).
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (decoded as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, field order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field by name.
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer that fits `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Why a body failed to decode; the payload is the 400 message.
#[derive(Debug, PartialEq, Eq)]
pub struct JsonError(pub &'static str);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing garbage is rejected).
///
/// # Errors
///
/// [`JsonError`] naming the first grammar violation.
pub fn parse_json(input: &[u8]) -> Result<JsonValue, JsonError> {
    let mut parser = Parser::new(input)?;
    let value = parser.value(0)?;
    parser.finish()?;
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the document's first non-whitespace byte.
    fn new(input: &'a [u8]) -> Result<Self, JsonError> {
        let text = std::str::from_utf8(input).map_err(|_| JsonError("body is not utf-8"))?;
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        Ok(parser)
    }

    /// Rejects anything but whitespace after the document.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError("trailing characters after document"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(value)
        } else {
            Err(JsonError("bad literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null", JsonValue::Null),
            Some(b't') => self.eat("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let mut items = Vec::new();
        self.elements(|p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let mut fields = Vec::new();
        self.fields(|p, name| {
            fields.push((name, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(JsonValue::Object(fields))
    }

    /// Walks the array at `pos`, calling `element` at the first byte of
    /// each element; `element` must consume exactly that element.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1; // '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(JsonError("expected ',' or ']' in array")),
            }
        }
    }

    /// Walks the object at `pos`, calling `field` with each field name and
    /// the parser at the first byte of its value; `field` must consume
    /// exactly that value.
    fn fields(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1; // '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(JsonError("expected a field name"));
            }
            let name = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(JsonError("expected ':' after field name"));
            }
            self.pos += 1;
            self.skip_ws();
            field(self, name)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(JsonError("expected ',' or '}' in object")),
            }
        }
    }

    /// The ingest body's top-level object, streamed: the first `items`
    /// field is decoded by [`Parser::u64_array`], every other field goes
    /// through [`Parser::value`] for its grammar only. The outer `Result`
    /// is the grammar, the inner one the shape of `items` (`None` when the
    /// field is absent), so a grammar error later in the body still wins.
    fn ingest_object(&mut self) -> Result<Option<Result<Vec<u64>, JsonError>>, JsonError> {
        let mut items = None;
        self.fields(|p, name| {
            if items.is_some() || name != "items" {
                p.value(1)?;
            } else if p.peek() == Some(b'[') {
                items = Some(p.u64_array()?);
            } else {
                p.value(1)?;
                items = Some(Err(JsonError("'items' must be an array")));
            }
            Ok(())
        })?;
        Ok(items)
    }

    /// The `items` array read straight into `u64`s. A short digit run
    /// takes the integer fast path; anything else is parsed by
    /// [`Parser::value`] and judged by [`JsonValue::as_u64`], exactly as
    /// the tree decode would.
    fn u64_array(&mut self) -> Result<Result<Vec<u64>, JsonError>, JsonError> {
        // Every element and its separator take at least two bytes, so this
        // never reallocates; capacity the elements do not fill is never
        // touched.
        let mut items = Vec::with_capacity((self.bytes.len() - self.pos) / 2);
        let mut shape = Ok(());
        self.elements(|p| {
            match p.digit_run() {
                Some(n) => items.push(n),
                None => match p.value(2)?.as_u64() {
                    Some(n) => items.push(n),
                    None => shape = Err(JsonError("items must be unsigned integers")),
                },
            }
            Ok(())
        })?;
        Ok(shape.map(|()| items))
    }

    /// A number token that is a run of at most 15 digits, as an integer.
    /// Such a run is below 2⁵³, so [`Parser::number`] would parse it to
    /// the same value exactly. `None` (with `pos` unmoved) for any other
    /// token, including longer runs and runs that continue as a fraction,
    /// exponent or sign.
    fn digit_run(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            if self.pos - start == 15 {
                self.pos = start;
                return None;
            }
            n = n * 10 + u64::from(d - b'0');
            self.pos += 1;
        }
        if self.pos == start || matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos = start;
            return None;
        }
        Some(n)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or(JsonError("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or(JsonError("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(JsonError("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the API's
                            // ASCII-keyed payloads; reject rather than
                            // mis-decode.
                            out.push(char::from_u32(hex).ok_or(JsonError("surrogate \\u escape"))?);
                        }
                        _ => return Err(JsonError("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: already validated by the str cast.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or(JsonError("bad utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        let n: f64 = text.parse().map_err(|_| JsonError("bad number"))?;
        if !n.is_finite() {
            return Err(JsonError("non-finite number"));
        }
        Ok(JsonValue::Number(n))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` so it round-trips as a JSON number (never NaN/∞ —
/// the API's estimates and budgets are always finite).
pub fn json_f64(x: f64) -> String {
    let mut s = String::new();
    push_json_f64(&mut s, x);
    s
}

/// Appends [`json_f64`]`(x)` to `out`.
fn push_json_f64(out: &mut String, x: f64) {
    debug_assert!(x.is_finite(), "API must not emit non-finite numbers");
    let start = out.len();
    write!(out, "{x}").expect("writing to a String cannot fail");
    // `{}` prints integral floats bare ("3"); keep them valid JSON but
    // unambiguous as floats for typed clients.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// `POST /ingest` body: `{"items": [1, 2, 3]}`.
#[derive(Debug, PartialEq, Eq)]
pub struct IngestRequest {
    /// The keys to ingest, in order.
    pub items: Vec<u64>,
}

impl IngestRequest {
    /// Decodes the body, tolerating unknown fields, in one pass: the
    /// first `items` array goes straight into a `Vec<u64>` without a
    /// [`JsonValue`] tree. The result, and every error message, is the
    /// one [`parse_json`] → `get("items")` → [`JsonValue::as_u64`] gives.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on a grammar error anywhere in the body; otherwise
    /// when the body is not an object, `items` is absent or not an array,
    /// or an element is not a `u64`-exact number.
    pub fn decode(body: &[u8]) -> Result<Self, JsonError> {
        let mut parser = Parser::new(body)?;
        let items = if parser.peek() == Some(b'{') {
            parser.ingest_object()?
        } else {
            parser.value(0)?;
            None
        };
        parser.finish()?;
        let items = items.ok_or(JsonError("missing 'items' field"))??;
        Ok(Self { items })
    }
}

/// `{"error": "...", "status": 400}` — every non-2xx body.
pub fn error_body(status: u16, message: &str) -> String {
    format!("{{\"status\":{status},\"error\":{}}}", json_string(message))
}

/// `GET /topk` response body.
pub fn topk_body(epoch: u64, entries: &[(u64, f64)]) -> String {
    // 64 bytes hold a row with a 20-digit key and a 17-digit estimate;
    // longer estimates just grow the string.
    let mut out = String::with_capacity(40 + 64 * entries.len());
    write!(out, "{{\"epoch\":{epoch},\"top\":[").expect("writing to a String cannot fail");
    for (i, (key, est)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"key\":{key},\"estimate\":").expect("writing to a String cannot fail");
        push_json_f64(&mut out, *est);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// `GET /point/{key}` response body.
pub fn point_body(epoch: u64, key: u64, estimate: f64) -> String {
    format!(
        "{{\"epoch\":{epoch},\"key\":{key},\"estimate\":{}}}",
        json_f64(estimate)
    )
}

/// `GET /epoch` response body.
pub fn epoch_body(epoch: u64, released_keys: usize) -> String {
    format!("{{\"epoch\":{epoch},\"released_keys\":{released_keys}}}")
}

/// `GET /budget` response body.
pub fn budget_body(
    scope: &str,
    remaining_epsilon: f64,
    remaining_delta: f64,
    charges: usize,
) -> String {
    format!(
        "{{\"scope\":{},\"remaining_epsilon\":{},\"remaining_delta\":{},\"charges\":{charges}}}",
        json_string(scope),
        json_f64(remaining_epsilon),
        json_f64(remaining_delta),
    )
}

/// `POST /ingest` response body.
pub fn ingest_body(accepted: usize, epoch: u64) -> String {
    format!("{{\"accepted\":{accepted},\"epoch\":{epoch}}}")
}

/// `POST /epoch/end` response body: the released snapshot's summary.
pub fn epoch_end_body(epoch: u64, items: u64, released_keys: usize) -> String {
    format!("{{\"epoch\":{epoch},\"items\":{items},\"released_keys\":{released_keys}}}")
}

/// `GET /window` response body: the service's epoch composition mode.
/// `window_epochs` is `null` unless the mode is windowed.
pub fn window_body(mode: &str, window_epochs: Option<u64>, epoch: u64) -> String {
    let w = match window_epochs {
        Some(w) => w.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"mode\":{},\"window_epochs\":{w},\"epoch\":{epoch}}}",
        json_string(mode)
    )
}

/// `GET /healthz` response body.
pub fn health_body(epochs: u64, tenants: usize) -> String {
    format!("{{\"status\":\"ok\",\"epochs\":{epochs},\"tenants\":{tenants}}}")
}

/// Decodes a released top-k / histogram response into a map — the client
/// half used by integration tests and the bench harness.
///
/// # Errors
///
/// [`JsonError`] if the body does not have the `topk_body` shape.
pub fn decode_topk(body: &[u8]) -> Result<BTreeMap<u64, f64>, JsonError> {
    let value = parse_json(body)?;
    let rows = match value.get("top") {
        Some(JsonValue::Array(rows)) => rows,
        _ => return Err(JsonError("missing 'top' array")),
    };
    let mut out = BTreeMap::new();
    for row in rows {
        let key = row
            .get("key")
            .and_then(JsonValue::as_u64)
            .ok_or(JsonError("row without 'key'"))?;
        let est = match row.get("estimate") {
            Some(JsonValue::Number(n)) => *n,
            _ => return Err(JsonError("row without 'estimate'")),
        };
        out.insert(key, est);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = br#" {"a": [1, 2.5, -3], "b": {"c": "x\n\"y\"", "d": null}, "e": true} "#;
        let v = parse_json(doc).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-3.0)
            ]))
        );
        assert_eq!(
            v.get("b").unwrap().get("c"),
            Some(&JsonValue::String("x\n\"y\"".to_string()))
        );
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn tolerates_unknown_fields_but_not_bad_grammar() {
        assert_eq!(
            IngestRequest::decode(br#"{"future_flag": true, "items": [1, 2, 3]}"#).unwrap(),
            IngestRequest {
                items: vec![1, 2, 3]
            }
        );
        for bad in [
            &br#"{"items": [1, 2"#[..],
            br#"{"items": "nope"}"#,
            br#"{"items": [1.5]}"#,
            br#"{"items": [-1]}"#,
            br#"{}"#,
            br#"[1,2,3]"#,
            br#"{"items": [1]} trailing"#,
            br#"{items: [1]}"#,
            b"\xff\xfe",
        ] {
            assert!(IngestRequest::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut doc = Vec::new();
        doc.extend_from_slice(&[b'['; 64]);
        doc.extend_from_slice(&[b']'; 64]);
        assert_eq!(parse_json(&doc), Err(JsonError("nesting too deep")));
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f→";
        let encoded = json_string(nasty);
        let decoded = parse_json(encoded.as_bytes()).unwrap();
        assert_eq!(decoded, JsonValue::String(nasty.to_string()));
    }

    #[test]
    fn topk_body_round_trips_through_decoder() {
        let body = topk_body(3, &[(7, 1234.5), (42, 99.0)]);
        let decoded = decode_topk(body.as_bytes()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!((decoded[&7] - 1234.5).abs() < 1e-12);
        assert!((decoded[&42] - 99.0).abs() < 1e-12);
    }

    #[test]
    fn topk_body_bytes_are_pinned() {
        assert_eq!(topk_body(0, &[]), r#"{"epoch":0,"top":[]}"#);
        assert_eq!(
            topk_body(5, &[(7, 3.0)]),
            r#"{"epoch":5,"top":[{"key":7,"estimate":3.0}]}"#
        );
        assert_eq!(
            topk_body(9, &[(42, -1.5), (u64::MAX, -2.0), (3, 0.125)]),
            concat!(
                r#"{"epoch":9,"top":[{"key":42,"estimate":-1.5},"#,
                r#"{"key":18446744073709551615,"estimate":-2.0},"#,
                r#"{"key":3,"estimate":0.125}]}"#
            )
        );
    }

    /// The tree decode `IngestRequest::decode` must agree with.
    fn tree_decode(body: &[u8]) -> Result<Vec<u64>, JsonError> {
        let value = parse_json(body)?;
        let items = match value.get("items") {
            Some(JsonValue::Array(items)) => items,
            Some(_) => return Err(JsonError("'items' must be an array")),
            None => return Err(JsonError("missing 'items' field")),
        };
        items
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or(JsonError("items must be unsigned integers"))
            })
            .collect()
    }

    fn assert_decodes_like_tree(body: &[u8]) {
        assert_eq!(
            IngestRequest::decode(body).map(|r| r.items),
            tree_decode(body),
            "{:?}",
            String::from_utf8_lossy(body)
        );
    }

    /// splitmix64: a seeded source for the differential inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.below(options.len())]
        }
    }

    /// Element tokens off the integer fast path, or next to its edges.
    const ODD_ELEMENTS: &[&str] = &[
        "0",
        "007",
        "000000000000000",
        "999999999999999",
        "0999999999999999",
        "9999999999999999",
        "12345678901234567890",
        "99999999999999999999999",
        "9007199254740992",
        "9007199254740993",
        "9007199254740994",
        "1.0",
        "1.5",
        "0.5",
        "1e3",
        "1E3",
        "1e+3",
        "1e-3",
        "1e400",
        "-0",
        "-0.0",
        "-1",
        "1-2",
        "1.",
        ".5",
        "+1",
        "01.0",
        "1e",
        "-",
        "null",
        "true",
        "\"5\"",
        "[]",
        "[1]",
        "{}",
        "{\"a\":1}",
    ];

    fn ws(rng: &mut Rng) -> &'static str {
        if rng.below(3) == 0 {
            rng.pick(&[" ", "\t", "\n", "\r\n", "  \t "])
        } else {
            ""
        }
    }

    fn element(rng: &mut Rng) -> String {
        match rng.below(6) {
            0 => rng.next().to_string(),
            1 => (rng.next() % (1 << 54)).to_string(),
            2 => ((1u64 << 53) - 3 + rng.next() % 7).to_string(),
            3 => rng.pick(ODD_ELEMENTS).to_string(),
            _ => (rng.next() % 1_000_000).to_string(),
        }
    }

    fn items_array(rng: &mut Rng) -> String {
        let mut out = format!("[{}", ws(rng));
        for i in 0..rng.below(8) {
            if i > 0 {
                out += &format!("{},{}", ws(rng), ws(rng));
            }
            out += &element(rng);
        }
        out + ws(rng) + "]"
    }

    fn value(rng: &mut Rng, depth: usize) -> String {
        match rng.below(if depth > 2 { 4 } else { 6 }) {
            0 => rng
                .pick(&["null", "true", "false", "\"s\\n\"", "-2.5e1"])
                .to_string(),
            1 => element(rng),
            2 => items_array(rng),
            3 => rng.pick(&["[]", "{}", "\"items\""]).to_string(),
            4 => format!("[{}{}]", value(rng, depth + 1), ws(rng)),
            _ => object(rng, depth + 1),
        }
    }

    fn object(rng: &mut Rng, depth: usize) -> String {
        let mut out = format!("{{{}", ws(rng));
        for i in 0..rng.below(4) {
            if i > 0 {
                out += ",";
            }
            let name = rng.pick(&["items", "items", "it\\u0065ms", "tenant", "nested"]);
            let field = if depth == 0 && rng.below(4) != 0 {
                items_array(rng)
            } else {
                value(rng, depth)
            };
            out += &format!(
                "{}\"{name}\"{}:{}{field}{}",
                ws(rng),
                ws(rng),
                ws(rng),
                ws(rng)
            );
        }
        out + "}"
    }

    #[test]
    fn streaming_decode_matches_the_tree_decode() {
        let mut rng = Rng(0x1d3c_0de5);
        for _ in 0..20_000 {
            let body = if rng.below(10) == 0 {
                value(&mut rng, 0)
            } else {
                object(&mut rng, 0)
            };
            assert_decodes_like_tree(format!("{}{body}{}", ws(&mut rng), ws(&mut rng)).as_bytes());
        }
        let mut deep = br#"{"items":["#.to_vec();
        deep.extend_from_slice(&[b'['; 16]);
        deep.extend_from_slice(&[b']'; 17]);
        deep.push(b'}');
        for body in [
            &b""[..],
            b"  ",
            b"\xff",
            br#"{"items":[1,2] , "items":[3]}"#,
            br#"{"items":"x", "items":[3]}"#,
            br#"{"items":[1.5], "other": [1, 2"#,
            br#"{"items":[1], "other":}"#,
            &deep,
            &deep[..deep.len() - 1],
        ] {
            assert_decodes_like_tree(body);
        }
    }

    #[test]
    fn streaming_decode_matches_the_tree_decode_on_every_truncation_and_byte_flip() {
        for valid in [
            &br#"{"items": [1, 22, 333, 9007199254740993, 1.0], "x": {"y": [null]}}"#[..],
            br#"{ "tenant":"ab", "items":[0,07,1e3] }"#,
        ] {
            for end in 0..valid.len() {
                assert_decodes_like_tree(&valid[..end]);
            }
            for at in 0..valid.len() {
                for byte in 0..=u8::MAX {
                    let mut body = valid.to_vec();
                    body[at] = byte;
                    assert_decodes_like_tree(&body);
                }
            }
        }
    }

    #[test]
    fn bodies_are_valid_json() {
        for body in [
            error_body(429, "budget \"exceeded\""),
            point_body(1, 7, 3.25),
            epoch_body(2, 10),
            budget_body("global", 1.5, 1e-6, 3),
            ingest_body(100, 2),
            epoch_end_body(3, 1000, 12),
            health_body(3, 2),
            window_body("windowed", Some(4), 9),
            window_body("independent", None, 2),
        ] {
            parse_json(body.as_bytes()).unwrap_or_else(|e| panic!("{e}: {body}"));
        }
    }

    #[test]
    fn u64_exactness_guard() {
        assert_eq!(JsonValue::Number(3.0).as_u64(), Some(3));
        assert_eq!(JsonValue::Number(3.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(2f64.powi(60)).as_u64(), None);
    }
}
