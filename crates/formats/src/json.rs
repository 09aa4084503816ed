//! JSON parser and serializer for [`Value`].
//!
//! The parser accepts the full JSON grammar (RFC 8259) including unicode
//! escapes; the serializer emits either compact or pretty (2-space indented)
//! text. The tool's scenario list and dataset files are stored with the
//! pretty form so users can diff them.

use crate::error::FormatError;
use crate::value::{write_float, OrderedMap, Value};
use std::fmt::{self, Write as _};

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Value, FormatError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Serializes a value to compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    JsonWriter::compact(&mut out).value(v);
    out
}

/// Serializes a value to pretty JSON with 2-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    JsonWriter::pretty(&mut out).value(v);
    out.push('\n');
    out
}

/// Streaming JSON writer: appends one document to a `String` as its
/// containers, keys and scalars are written, with no intermediate
/// [`Value`] tree.
///
/// This is the crate's only formatter — [`to_string`] and
/// [`to_string_pretty`] walk a [`Value`] into it — so a record written
/// field by field is byte-identical to the same record built as a
/// [`Value`] and serialized. The caller keeps the document well formed:
/// every `key` inside an object is followed by exactly one value, and
/// every `begin_*` is matched by its `end_*`.
///
/// ```
/// use hpcadvisor_formats::json::JsonWriter;
/// let mut out = String::new();
/// let mut w = JsonWriter::compact(&mut out);
/// w.begin_object();
/// w.key("id").int(7);
/// w.key("tags").begin_array().str("a\"b").end_array();
/// w.end_object();
/// assert_eq!(out, r#"{"id":7,"tags":["a\"b"]}"#);
/// ```
pub struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no items yet.
    first: bool,
    /// A key was just written: the next value follows it directly.
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer emitting compact JSON (no whitespace) into `out`.
    pub fn compact(out: &'a mut String) -> Self {
        JsonWriter::new(out, false)
    }

    /// A writer emitting pretty JSON (2-space indentation, `": "` after
    /// keys, empty containers as `[]`/`{}`) into `out`. No trailing
    /// newline is written.
    pub fn pretty(out: &'a mut String) -> Self {
        JsonWriter::new(out, true)
    }

    fn new(out: &'a mut String, pretty: bool) -> Self {
        JsonWriter {
            out,
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item_prefix();
        write_string(self.out, key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// Writes an integer.
    pub fn int(&mut self, i: i64) -> &mut Self {
        self.before_value();
        let _ = write!(self.out, "{i}");
        self
    }

    /// Writes a float: integral values below 1e15 keep a `.0` marker,
    /// everything else is the shortest round-tripping spelling.
    pub fn float(&mut self, f: f64) -> &mut Self {
        self.before_value();
        write_float(self.out, f);
        self
    }

    /// Writes a string, escaping quotes, backslashes and control
    /// characters.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.before_value();
        write_string(self.out, s);
        self
    }

    /// Writes the `Display` form of `v` as a string, escaped like
    /// [`JsonWriter::str`], without formatting it into a `String` first.
    pub fn str_display(&mut self, v: &impl fmt::Display) -> &mut Self {
        self.before_value();
        self.out.push('"');
        let _ = write!(Escaper(self.out), "{v}");
        self.out.push('"');
        self
    }

    /// Writes a whole [`Value`].
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(i) => self.int(*i),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.str(s),
            Value::Seq(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Value::Map(m) => {
                self.begin_object();
                for (k, v) in m.iter() {
                    self.key(k).value(v);
                }
                self.end_object()
            }
        }
    }

    fn raw(&mut self, text: &str) -> &mut Self {
        self.before_value();
        self.out.push_str(text);
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.before_value();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.depth = self
            .depth
            .checked_sub(1)
            .expect("end_object/end_array without a matching begin");
        if !self.first {
            self.newline_indent();
        }
        self.out.push(bracket);
        // The enclosing container now holds at least this one item.
        self.first = false;
        self
    }

    fn before_value(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        self.item_prefix();
    }

    /// Separator and line break before an array item or object key.
    fn item_prefix(&mut self) {
        if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            self.newline_indent();
        }
        self.first = false;
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }
}

/// Escapes everything written through it into the wrapped string, so a
/// `Display` impl can stream straight into a JSON string literal.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        write_escaped(self.0, s);
        Ok(())
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    write_escaped(out, s);
    out.push('"');
}

/// Appends `s` with JSON escapes, copying runs that need none whole. Every
/// escaped byte is ASCII, so each cut lands on a char boundary.
fn write_escaped(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[start..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Maximum container nesting depth — a stack-overflow guard for crafted
/// documents (the recursive-descent parser uses the native stack).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    line_start: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> FormatError {
        FormatError::at(self.line, self.pos - self.line_start + 1, msg)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), FormatError> {
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {}",
                b as char,
                self.peek()
                    .map(|c| format!("'{}'", c as char))
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, FormatError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, FormatError> {
        for expected in word.bytes() {
            if self.bump() != Some(expected) {
                return Err(self.err(format!("invalid literal, expected '{word}'")));
            }
        }
        Ok(value)
    }

    fn enter(&mut self) -> Result<(), FormatError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn parse_object(&mut self) -> Result<Value, FormatError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut map = OrderedMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            self.depth -= 1;
            return Ok(Value::Map(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.depth -= 1;
                    return Ok(Value::Map(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, FormatError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            self.depth -= 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, FormatError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Surrogate pair handling for non-BMP characters.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired high surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        match c {
                            Some(c) => s.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Re-decode a UTF-8 multibyte sequence starting at b.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump().ok_or_else(|| self.err("truncated UTF-8"))?;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, FormatError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, FormatError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        } else {
            // Integers that overflow i64 fall back to f64, like most readers.
            text.parse::<i64>().map(Value::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err(format!("invalid number '{text}'")))
            })
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

/// The `Value` formatter the streaming writer replaced, kept as the
/// reference the writer is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::value::{OrderedMap, Value};

    fn format_float(f: f64) -> String {
        if f == f.trunc() && f.abs() < 1e15 {
            format!("{f:.1}")
        } else {
            let mut s = format!("{f}");
            if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
                s.push_str(".0");
            }
            s
        }
    }

    pub(crate) fn to_string(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, None, 0);
        out
    }

    pub(crate) fn to_string_pretty(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, Some(2), 0);
        out.push('\n');
        out
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => out.push_str(&format_float(*f)),
            Value::Str(s) => write_string(out, s),
            Value::Seq(items) => write_seq(out, items, indent, depth),
            Value::Map(m) => write_map(out, m, indent, depth),
        }
    }

    fn write_seq(out: &mut String, items: &[Value], indent: Option<usize>, depth: usize) {
        if items.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline_indent(out, indent, depth + 1);
            write_value(out, item, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out.push(']');
    }

    fn write_map(out: &mut String, m: &OrderedMap, indent: Option<usize>, depth: usize) {
        if m.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push('{');
        for (i, (k, v)) in m.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline_indent(out, indent, depth + 1);
            write_string(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, v, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out.push('}');
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * depth {
                out.push(' ');
            }
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-17").unwrap(), Value::Int(-17));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parses_nested_structure() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
        let seq = v.get("a").unwrap().as_seq().unwrap();
        assert_eq!(seq[0], Value::Int(1));
        assert!(seq[1].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Value::str("line1\nline2\t\"quoted\" \\slash\u{1F680}");
        let s = to_string(&original);
        assert_eq!(parse(&s).unwrap(), original);
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(parse(r#""A""#).unwrap(), Value::str("A"));
        // Surrogate pair: rocket emoji.
        assert_eq!(parse(r#""🚀""#).unwrap(), Value::str("🚀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(
            parse(r#""\ud83d""#).is_err(),
            "unpaired surrogate must fail"
        );
    }

    #[test]
    fn error_carries_position() {
        let err = parse("{\n  \"a\": @\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn pretty_output_shape() {
        let mut m = OrderedMap::new();
        m.insert("sku", Value::str("HB120rs_v3"));
        m.insert("nnodes", Value::Seq(vec![Value::Int(1), Value::Int(2)]));
        let s = to_string_pretty(&Value::Map(m));
        let expected = "{\n  \"sku\": \"HB120rs_v3\",\n  \"nnodes\": [\n    1,\n    2\n  ]\n}\n";
        assert_eq!(s, expected);
    }

    #[test]
    fn writer_escapes_and_nests_like_the_reference() {
        let mut inner = OrderedMap::new();
        inner.insert("e", Value::Seq(vec![]));
        inner.insert("m", Value::Map(OrderedMap::new()));
        inner.insert("s", Value::str("q\"b\\n\n\r\t\u{0}\u{1f}\u{7f}é🚀"));
        let mut m = OrderedMap::new();
        m.insert("inner", Value::Map(inner));
        m.insert(
            "floats",
            Value::Seq(vec![
                Value::Float(2.0),
                Value::Float(-0.0),
                Value::Float(1e15),
                Value::Float(-2.5e20),
                Value::Float(1e-300),
                Value::Float(0.1),
            ]),
        );
        m.insert(
            "ints",
            Value::Seq(vec![Value::Int(i64::MIN), Value::Int(0)]),
        );
        let v = Value::Map(m);
        assert_eq!(to_string(&v), reference::to_string(&v));
        assert_eq!(to_string_pretty(&v), reference::to_string_pretty(&v));
        let escaped = concat!(r#""q\"b\\n\n\r\t\u0000\u001f"#, "\u{7f}é🚀\"");
        assert!(to_string(&v).contains(escaped), "{}", to_string(&v));
    }

    #[test]
    fn str_display_escapes_like_str() {
        struct Tricky;
        impl fmt::Display for Tricky {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "a\"b")?;
                write!(f, "\\c\n{:04x}", 0xab)
            }
        }
        let mut direct = String::new();
        JsonWriter::compact(&mut direct).str_display(&Tricky);
        assert_eq!(direct, to_string(&Value::str(Tricky.to_string())));
        assert_eq!(direct, r#""a\"b\\c\n00ab""#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Value::Seq(vec![])), "[]");
        assert_eq!(to_string(&Value::Map(OrderedMap::new())), "{}");
        assert_eq!(parse("[]").unwrap(), Value::Seq(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Map(OrderedMap::new()));
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        // A 100k-deep array must fail cleanly, not overflow the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Moderate nesting still parses.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn huge_integer_falls_back_to_float() {
        let v = parse("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }
}
