//! Offline JSON codec for the serde shim: `to_string`,
//! `to_string_pretty`, and `from_str` over [`serde::Value`].

use serde::{Deserialize, Serialize, Value};

pub use serde::Value as JsonValue;

/// Parse or data-model error. Carries a byte offset for parse errors.
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
    /// Byte offset in the input, when known.
    at: Option<usize>,
}

impl Error {
    fn parse(msg: impl Into<String>, at: usize) -> Self {
        Error {
            msg: msg.into(),
            at: Some(at),
        }
    }
}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error {
            msg: e.to_string(),
            at: None,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at {
            Some(at) => write!(f, "{} at byte {at}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON. Infallible for this shim's data model, but
/// keeps serde_json's `Result` signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize to pretty-printed JSON (2-space indent, like serde_json).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deserialize from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
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

fn write_float(f: f64, out: &mut String) {
    if f == f.trunc() && f.abs() < 1e15 {
        // Keep integral floats recognizably float ("1.0", as serde_json).
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn newline_indent(out: &mut String, indent: usize, level: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent * level));
}

fn write_value(v: &Value, out: &mut String, pretty: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(ind) = pretty {
                    newline_indent(out, ind, level + 1);
                }
                write_value(x, out, pretty, level + 1);
            }
            if let Some(ind) = pretty {
                newline_indent(out, ind, level);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(ind) = pretty {
                    newline_indent(out, ind, level + 1);
                }
                write_escaped(k, out);
                out.push(':');
                if pretty.is_some() {
                    out.push(' ');
                }
                write_value(x, out, pretty, level + 1);
            }
            if let Some(ind) = pretty {
                newline_indent(out, ind, level);
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Scans `bytes` and slices `src` — the same text, already known to be
/// UTF-8 — between ASCII delimiters, which are always char boundaries.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse("trailing characters", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error::parse("invalid literal", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::parse("expected a JSON value", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(Error::parse("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(Error::parse("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::parse("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let combined = 0x10000
                                    + ((hi - 0xD800) << 10)
                                    + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(
                                c.ok_or_else(|| Error::parse("invalid \\u escape", self.pos))?,
                            );
                        }
                        _ => return Err(Error::parse("invalid escape", self.pos - 1)),
                    }
                }
                _ => return Err(Error::parse("unterminated string", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::parse("truncated \\u escape", self.pos))?;
        let s =
            std::str::from_utf8(chunk).map_err(|_| Error::parse("invalid \\u escape", self.pos))?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| Error::parse("invalid \\u escape", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::parse("invalid number", start))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::parse("invalid number", start))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"hi\"\\\n".to_string()).unwrap(), r#""hi\"\\\n""#);
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.5e2").unwrap(), 150.0);
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<String>(r#""aA\n""#).unwrap(), "aA\n");
        // Multi-byte runs on both sides of an escape are sliced whole.
        assert_eq!(from_str::<String>(r#""é—é✓\"ü""#).unwrap(), "é—é✓\"ü");
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    }

    #[test]
    fn roundtrip_containers() {
        let v: Vec<(String, f64)> = vec![("a".into(), 1.0), ("b".into(), 2.5)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, r#"[["a",1.0],["b",2.5]]"#);
        let back: Vec<(String, f64)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_shape() {
        let v: Vec<u32> = vec![1, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = from_str::<u32>("[1,").unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
        assert!(from_str::<u32>("42 garbage").is_err());
        assert!(from_str::<u32>("{\"a\": }").is_err());
    }

    #[test]
    fn nan_serializes_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    // The derive's two container attributes, exercised from text the way
    // the document parsers use them.

    #[derive(Debug, PartialEq, Deserialize)]
    #[serde(default, deny_unknown_fields)]
    struct Knobs {
        threshold: f64,
        min_calls: u32,
        label: String,
    }

    impl Default for Knobs {
        fn default() -> Self {
            Knobs {
                threshold: 0.5,
                min_calls: 20,
                label: "stock".into(),
            }
        }
    }

    #[derive(Debug, PartialEq, Deserialize)]
    #[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
    enum Fault {
        Kill {
            shard: usize,
            at_secs: u64,
        },
        ControllerLoss {
            from_secs: u64,
            #[serde(default)]
            until_secs: u64,
        },
        Heal,
    }

    #[derive(Debug, Deserialize)]
    #[serde(deny_unknown_fields)]
    struct Plan {
        shards: usize,
        #[serde(default)]
        knobs: Option<Knobs>,
        #[serde(default)]
        faults: Vec<Fault>,
    }

    #[test]
    fn container_default_fills_what_a_partial_object_leaves_out() {
        let k: Knobs = from_str(r#"{"min_calls": 3}"#).unwrap();
        let stock = Knobs::default();
        assert_eq!((k.threshold, k.min_calls), (stock.threshold, 3));
        assert_eq!(k.label, stock.label);
        assert_eq!(from_str::<Knobs>("{}").unwrap(), stock);
        // A present field of the wrong type is still an error.
        let e = from_str::<Knobs>(r#"{"min_calls": "3"}"#).unwrap_err();
        assert_eq!(e.to_string(), "min_calls: expected integer, found string");
    }

    #[test]
    fn an_unknown_field_names_the_nearest_key_and_lists_them_all() {
        let e = from_str::<Knobs>(r#"{"treshold": 0.1}"#).unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown key 'treshold' — did you mean 'threshold'?\n\
             valid keys: threshold, min_calls, label"
        );
        // Nothing within edit distance 3: the list, no guess.
        let e = from_str::<Knobs>(r#"{"zzqxw": 1}"#)
            .unwrap_err()
            .to_string();
        assert!(e.starts_with("unknown key 'zzqxw'\nvalid keys: "), "{e}");
        // A required field is still required.
        let e = from_str::<Plan>(r#"{"shard": 2}"#).unwrap_err().to_string();
        assert!(e.contains("did you mean 'shards'?"), "{e}");
        let e = from_str::<Plan>("{}").unwrap_err().to_string();
        assert_eq!(e, "missing field `shards`");
    }

    #[test]
    fn a_tagged_variant_accepts_its_tag_and_its_own_fields_only() {
        let ok: Fault = from_str(r#"{"kind": "kill", "shard": 1, "at_secs": 9}"#).unwrap();
        assert_eq!(
            ok,
            Fault::Kill {
                shard: 1,
                at_secs: 9
            }
        );
        assert_eq!(
            from_str::<Fault>(r#"{"kind": "heal"}"#).unwrap(),
            Fault::Heal
        );
        // `from_secs` is a key of the enum, but not of this variant.
        for (doc, found) in [
            (
                r#"{"kind": "kill", "shard": 1, "at_secs": 9, "from_secs": 1}"#,
                "from_secs",
            ),
            (r#"{"kind": "heal", "shard": 1}"#, "shard"),
        ] {
            let e = from_str::<Fault>(doc).unwrap_err().to_string();
            assert!(e.contains(&format!("unknown key '{found}'")), "{e}");
        }
        let e = from_str::<Fault>(r#"{"kind": "controller_loss", "from_sec": 1}"#)
            .unwrap_err()
            .to_string();
        assert!(e.starts_with("(controller_loss): unknown key"), "{e}");
        assert!(
            e.ends_with("valid keys: kind, from_secs, until_secs"),
            "{e}"
        );
    }

    #[test]
    fn a_nested_error_carries_field_index_and_variant() {
        let doc = r#"{"shards": 2, "faults": [
            {"kind": "controller_loss", "from_secs": 1},
            {"kind": "kill", "shard": 1, "at_sec": 9}]}"#;
        let e = from_str::<Plan>(doc).unwrap_err().to_string();
        assert!(
            e.starts_with("faults[1] (kill): unknown key 'at_sec' — did you mean 'at_secs'?"),
            "{e}"
        );
        let e = from_str::<Plan>(r#"{"shards": 2, "knobs": {"labl": "x"}}"#).unwrap_err();
        assert!(
            e.to_string().starts_with("knobs: unknown key 'labl'"),
            "{e}"
        );
        let e =
            from_str::<Vec<Plan>>(r#"[{"shards": 1}, {"shards": 1, "faults": [{}]}]"#).unwrap_err();
        assert_eq!(e.to_string(), "[1].faults[0]: missing field `kind`");
    }

    #[test]
    fn null_is_still_an_absent_optional_block() {
        let p: Plan = from_str(r#"{"shards": 2, "knobs": null}"#).unwrap();
        assert_eq!((p.shards, p.knobs, p.faults.len()), (2, None, 0));
        let p: Plan = from_str(r#"{"shards": 2, "knobs": {}}"#).unwrap();
        assert_eq!(p.knobs, Some(Knobs::default()));
    }
}
