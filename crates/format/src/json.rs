//! Hand-rolled JSON encoder (result rows) and a minimal parser.
//!
//! The encoder emits an array of objects, one per row, with
//! attribute labels as keys. The parser ([`parse_json`]) reads back the
//! same subset — the tools use it to validate their own machine-
//! readable outputs (`cali-query --stats=json`, `FORMAT json`) without
//! pulling in serde_json; the subset of JSON we need — objects and
//! arrays of string/number/bool values — is tiny.

use std::fmt::Write;

use caliper_data::{Attribute, Value};

use crate::binary_v2::Cell;
use crate::rows::{BlockRows, Escapes, Picker};

/// Escape a string per RFC 8259.
pub fn escape_json(input: &str) -> String {
    let mut out = String::with_capacity(input.len() + 2);
    escape_json_into(input, &mut out);
    out
}

/// [`escape_json`] appended to `out`.
fn escape_json_into(input: &str, out: &mut String) {
    for ch in input.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
}

/// `input` as a JSON string literal, appended to `out`.
fn push_string(input: &str, out: &mut String) {
    out.push('"');
    escape_json_into(input, out);
    out.push('"');
}

/// Append one value to `out` as a JSON literal. Non-finite floats
/// become `null` (JSON has no NaN/Inf).
fn write_json_value(out: &mut String, value: &Value) {
    let written = match value {
        Value::Str(s) => {
            push_string(s, out);
            Ok(())
        }
        Value::Int(i) => write!(out, "{i}"),
        Value::UInt(u) => write!(out, "{u}"),
        // Ensure the output re-parses as a float, not an int.
        Value::Float(f) if f.is_finite() && f.fract() == 0.0 && f.abs() < 1e15 => {
            write!(out, "{f:.1}")
        }
        Value::Float(f) if f.is_finite() => write!(out, "{f}"),
        Value::Float(_) => write!(out, "null"),
        Value::Bool(b) => write!(out, "{b}"),
    };
    written.expect("writing to a String");
}

/// Encode rows as a JSON array of objects, one per row, with
/// attribute labels as keys. An object holds the row's attributes
/// among `columns`, in the row's own order; a nested attribute's
/// several values are joined into their path string, as the table
/// formatter joins them. With `pretty`, each member gets its own
/// indented line (`FORMAT json(pretty)`); otherwise one compact object
/// per line. Each string of the rows' table is escaped once.
pub fn write_json(rows: &BlockRows, columns: &[Attribute], pretty: bool) -> String {
    let mut picker = Picker::new(rows, columns.iter().map(Attribute::id));
    // Per slot: its member's key, escaped and quoted.
    let mut keys = Vec::new();
    for (j, column) in columns.iter().enumerate() {
        if picker.slot(j) == keys.len() {
            let mut key = String::new();
            push_string(column.name(), &mut key);
            keys.push(key);
        }
    }
    let (open, separator, assign, close) = if pretty {
        ("{\n  ", ",\n  ", ": ", "\n}")
    } else {
        ("{", ",", ":", "}")
    };
    let mut escaped = Escapes::new(rows.strings());
    let mut path = String::new();
    let mut out = String::from("[\n");
    for i in 0..rows.len() {
        if i > 0 {
            out.push_str(",\n");
        }
        picker.pick(rows, i);
        let mut members = 0;
        for k in rows.span(i) {
            // A member per attribute, where its first value is.
            let Some(slot) = picker.slot_at(rows, k) else { continue };
            let (count, first, _) = picker.found(slot);
            if first != k {
                continue;
            }
            out.push_str(if members == 0 { open } else { separator });
            out.push_str(&keys[slot]);
            out.push_str(assign);
            match (count, rows.cell_at(k)) {
                (1, Cell::Str(code)) => escaped.push(&mut out, rows.strings(), code, push_string),
                (1, number) => write_json_value(&mut out, &rows.value(number)),
                _ => {
                    path.clear();
                    rows.write_path(&mut path, picker.cells(rows, slot));
                    push_string(&path, &mut out);
                }
            }
            members += 1;
        }
        out.push_str(if members == 0 { "{}" } else { close });
    }
    out.push_str("\n]\n");
    out
}

/// A parsed JSON value (the decode-side counterpart of the encoder
/// above). Object members keep source order so callers can check
/// key-ordering contracts (the `--stats=json` block must be sorted).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced by the encoder for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64; integers up to 2^53 are exact).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup for objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Object keys in source order; empty for other variants.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Error from [`parse_json`]: a message plus the byte offset it refers
/// to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document. Trailing whitespace is allowed; trailing
/// content is an error.
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut p = JsonParser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after JSON value"));
    }
    Ok(value)
}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogates (emitted only for non-BMP text,
                            // which our encoder writes verbatim) are not
                            // supported; map them to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances
                    // by whole tokens or `len_utf8()`, so it stays on a
                    // char boundary of the source text.
                    let ch = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::tests::rows_of;
    use caliper_data::{AttributeStore, FlatRecord, ValueType};

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn values_encode_per_type() {
        let json = |value: Value| {
            let mut out = String::new();
            write_json_value(&mut out, &value);
            out
        };
        assert_eq!(json(Value::Int(-3)), "-3");
        assert_eq!(json(Value::UInt(3)), "3");
        assert_eq!(json(Value::Float(1.5)), "1.5");
        assert_eq!(json(Value::Float(2.0)), "2.0");
        assert_eq!(json(Value::Float(f64::NAN)), "null");
        assert_eq!(json(Value::Bool(true)), "true");
        assert_eq!(json(Value::str("x")), "\"x\"");
    }

    #[test]
    fn rows_render_as_objects() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let count = store.create_simple("count", ValueType::UInt);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        rec.push(func.id(), Value::str("foo"));
        rec.push(count.id(), Value::UInt(7));
        let rows = rows_of(&[rec.clone(), rec]);
        let json = write_json(&rows, &[func.clone(), count.clone()], false);
        assert_eq!(
            json,
            "[\n{\"function\":\"main/foo\",\"count\":7},\n{\"function\":\"main/foo\",\"count\":7}\n]\n"
        );
        // Members keep the row's order, whatever the columns'; only
        // the columns' attributes are members.
        assert_eq!(
            write_json(&rows, &[count, func.clone()], false).lines().nth(1),
            Some("{\"function\":\"main/foo\",\"count\":7},")
        );
        assert_eq!(
            write_json(&rows, &[func], false).lines().nth(1),
            Some("{\"function\":\"main/foo\"},")
        );
    }

    #[test]
    fn pretty_output_indents_members() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        let rows = rows_of(&[rec, FlatRecord::new()]);
        let pretty = write_json(&rows, std::slice::from_ref(&func), true);
        assert_eq!(pretty, "[\n{\n  \"function\": \"main\"\n},\n{}\n]\n");
        // Pretty output must still parse.
        assert!(parse_json(&pretty).is_ok());
        assert_eq!(
            write_json(&rows, &[func], false),
            "[\n{\"function\":\"main\"},\n{}\n]\n"
        );
    }

    #[test]
    fn parser_reads_scalars_and_structure() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            parse_json("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".into())
        );
        let doc = parse_json("{\"a\":[1,2],\"b\":{\"c\":\"x\"}}").unwrap();
        assert_eq!(doc.keys(), ["a", "b"]);
        assert_eq!(
            doc.get("a"),
            Some(&Json::Array(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Str("x".into())));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"x", "{,}"] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse_json("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn parser_roundtrips_encoder_output() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let t = store.create_simple("t", ValueType::Float);
        let n = store.create_simple("n", ValueType::UInt);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main \"quoted\""));
        rec.push(t.id(), Value::Float(2.0));
        rec.push(n.id(), Value::UInt(7));
        let doc = parse_json(&write_json(&rows_of(&[rec]), &[func, t, n], false)).unwrap();
        let Json::Array(items) = &doc else {
            panic!("expected array, got {doc:?}")
        };
        assert_eq!(items[0].get("function"), Some(&Json::Str("main \"quoted\"".into())));
        assert_eq!(items[0].get("t").and_then(Json::as_num), Some(2.0));
        assert_eq!(items[0].get("n").and_then(Json::as_num), Some(7.0));
    }
}
