//! Minimal JSON reading and writing, shared by the workspace's two JSON
//! surfaces: the `hm check --json` diagnostics report
//! ([`Diagnostics::to_json`](crate::Diagnostics::to_json)) and the
//! `hm serve` request/response schema (re-exported as `hm_serve::json`).
//!
//! The workspace is fully offline (no serde), so this carries a
//! recursive-descent reader and an escape-aware writer — just enough for
//! those fixed schemas. Numbers are parsed as `f64` and narrowed on
//! access; [`Value::opt_field`] and [`Value::field`] read an explicit
//! `null` as absent.
//!
//! The reader is exposed to adversarial input (any `POST /query` body up
//! to 1 MiB), so it is hardened accordingly: nesting deeper than
//! [`MAX_DEPTH`] is rejected with an error instead of recursing — a body
//! of a million `[`s must answer `400`, not blow the worker stack — and
//! the fuzz suite in `crates/serve/tests/props_json.rs` pins "never
//! panics" over arbitrary and structurally-mutated inputs.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal.
pub fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest accepted nesting of arrays/objects. Far beyond anything the
/// schemas need, and far below what overflows a worker stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (narrowed on access).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON document; rejects trailing input.
    pub fn parse(src: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(v)
    }

    /// The value of field `name`, or `None` when absent or `null`.
    pub fn opt_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .filter(|v| !matches!(v, Value::Null)),
            _ => None,
        }
    }

    /// The value of required field `name`.
    pub fn field(&self, name: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(_) => self
                .opt_field(name)
                .ok_or_else(|| format!("missing field `{name}`")),
            _ => Err(format!("expected an object with field `{name}`")),
        }
    }

    /// This value as an array slice.
    pub fn array(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(xs) => Ok(xs),
            _ => Err("expected an array".to_string()),
        }
    }

    /// This value as a string.
    pub fn string(&self) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            _ => Err("expected a string".to_string()),
        }
    }

    /// This value as a boolean.
    pub fn boolean(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".to_string()),
        }
    }

    /// This value as a non-negative integer.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn u64(&self) -> Result<u64, String> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err("expected a non-negative integer".to_string()),
        }
    }

    /// Appends this value to `out` as JSON text.
    ///
    /// Inverse of [`parse`](Self::parse) for every value `parse` can
    /// produce (non-finite numbers cannot come out of the parser and
    /// would not serialize as valid JSON).
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => esc(out, s),
            Value::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    esc(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// This value as a JSON document string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Current array/object nesting, checked against [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    /// Charges one level of array/object nesting; fails past
    /// [`MAX_DEPTH`] so adversarially nested bodies are rejected
    /// instead of recursing until the stack runs out.
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.at
            ));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.bytes.get(self.at) {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.descend()?;
                self.at += 1;
                let mut xs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(xs));
                }
                loop {
                    self.skip_ws();
                    xs.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.eat(b']')?;
                        self.depth -= 1;
                        return Ok(Value::Arr(xs));
                    }
                }
            }
            Some(b'{') => {
                self.descend()?;
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.eat(b'}')?;
                        self.depth -= 1;
                        return Ok(Value::Obj(fields));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad code point at byte {}", self.at))?,
                            );
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.at..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shape() {
        let v = Value::parse(
            r#"{"spec":"generals","formula":"K1 dispatched","horizon":8,
               "minimize":true,"limits":{"max_runs":100,"timeout_ms":250}}"#,
        )
        .unwrap();
        assert_eq!(v.field("spec").unwrap().string().unwrap(), "generals");
        assert_eq!(v.field("horizon").unwrap().u64().unwrap(), 8);
        assert!(v.field("minimize").unwrap().boolean().unwrap());
        let limits = v.field("limits").unwrap();
        assert_eq!(limits.field("max_runs").unwrap().u64().unwrap(), 100);
        assert!(limits.opt_field("max_worlds").is_none());
        assert!(v.opt_field("nope").is_none());
    }

    #[test]
    fn arrays_parse() {
        let v = Value::parse(r#"{"xs":[1,"two",[],{}]}"#).unwrap();
        assert_eq!(v.field("xs").unwrap().array().unwrap().len(), 4);
        assert!(v.field("xs").unwrap().u64().is_err());
    }

    #[test]
    fn null_fields_read_as_absent() {
        let v = Value::parse(r#"{"horizon":null}"#).unwrap();
        assert!(v.opt_field("horizon").is_none());
        assert!(v.field("horizon").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse(r#"{"a":0x1}"#).is_err());
    }

    #[test]
    fn nesting_is_capped_not_stack_fatal() {
        // Exactly at the cap: fine.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        // One past the cap: a parse error naming the limit.
        let over = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Value::parse(&over).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A megabyte of open brackets — the blow-the-stack shape — is
        // rejected by the same check, without a megabyte of recursion.
        assert!(Value::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(200_000)).is_err());
        // Wide is not deep: many siblings are fine.
        let wide = format!("[{}0]", "0,".repeat(10_000));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn writer_round_trips() {
        let src = r#"{"a":[1,2.5,-3],"b":{"c":null,"d":true},"e":"x\ny"}"#;
        let v = Value::parse(src).unwrap();
        let out = v.to_json_string();
        assert_eq!(Value::parse(&out).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        esc(&mut out, "a\"b\\c\nd\u{1}");
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.string().unwrap(), "a\"b\\c\nd\u{1}");
    }
}
