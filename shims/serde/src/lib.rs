//! Offline shim for the subset of `serde` this workspace uses.
//!
//! Instead of serde's visitor architecture, this shim converts through an
//! owned JSON-like [`Value`] tree: `Serialize` renders to a `Value`,
//! `Deserialize` reads from one. `serde_json` (the sibling shim) handles
//! the text encoding. The derive macros (`serde_derive`, re-exported
//! here) generate `to_value` / `from_value` bodies supporting the
//! attribute forms this workspace actually uses: `#[serde(default)]`,
//! `#[serde(default = "path")]`, and container-level
//! `#[serde(tag = "...", rename_all = "snake_case")]`,
//! `#[serde(deny_unknown_fields)]` (an unknown key is an
//! [`Error::unknown_field`]: nearest valid key within edit distance 3,
//! then the valid-key list) and `#[serde(default)]` (absent fields come
//! from the type's `Default`). An error names where it happened:
//! `sharding.faults[0] (kill): ...` — fields joined by `.`, `Vec`
//! elements as `[i]`, the variant of a tagged enum in parentheses.
//!
//! Behavioral parity notes (matching serde_json where the workspace can
//! observe it): non-finite floats serialize to `null`; newtype structs
//! are transparent; unit enum variants serialize as strings; missing
//! fields deserialize as `None` for `Option` and error otherwise.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree — the interchange format between the traits
/// and the `serde_json` text codec.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Any JSON integer; `i128` covers the full `u64` and `i64` ranges.
    Int(i128),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered, so serialized output is stable.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: a message plus the path it happened at.
#[derive(Clone, Debug)]
pub struct Error {
    /// `a.b[2] (variant)`, built outward by [`Error::in_field`],
    /// [`Error::in_index`] and [`Error::in_variant`]; empty at the root.
    path: String,
    msg: String,
}

/// Levenshtein edit distance, for the "did you mean" hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

impl Error {
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Error {
            path: String::new(),
            msg: msg.to_string(),
        }
    }

    pub fn missing_field(key: &str) -> Self {
        Error::custom(format!("missing field `{key}`"))
    }

    /// A key the type does not declare: names the nearest declared key
    /// when one is within edit distance 3, then lists them all. A typo
    /// that ran with the default would be the worst failure a config
    /// file can have.
    pub fn unknown_field(found: &str, expected: &[&str]) -> Self {
        let hint = expected
            .iter()
            .min_by_key(|k| edit_distance(found, k))
            .filter(|k| edit_distance(found, k) <= 3)
            .map_or(String::new(), |k| format!(" — did you mean '{k}'?"));
        Error::custom(format!(
            "unknown key '{found}'{hint}\nvalid keys: {}",
            expected.join(", ")
        ))
    }

    pub fn expected(what: &str, got: &Value) -> Self {
        let kind = match got {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        };
        Error::custom(format!("expected {what}, found {kind}"))
    }

    /// Put `segment` in front of the path; a field under it joins by `.`.
    fn under(mut self, segment: impl std::fmt::Display) -> Self {
        let dot = if self.path.is_empty() || self.path.starts_with(['[', ' ']) {
            ""
        } else {
            "."
        };
        self.path = format!("{segment}{dot}{}", self.path);
        self
    }

    /// Add field context to an inner error.
    pub fn in_field(self, key: &str) -> Self {
        self.under(key)
    }

    /// Add element context to an error from inside a `Vec`.
    pub fn in_index(self, i: usize) -> Self {
        self.under(format_args!("[{i}]"))
    }

    /// Name the variant of the tagged enum whose object the error is in.
    pub fn in_variant(self, variant: &str) -> Self {
        self.under(format_args!(" ({variant})"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.path.trim_start() {
            "" => f.write_str(&self.msg),
            path => write!(f, "{path}: {}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

/// Render to a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Build from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// `Value` round-trips through itself, so callers can deserialize into
// the dynamic tree (`serde_json::from_str::<Value>`) to inspect raw
// structure — e.g. to validate keys — before a typed parse.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------
// Derive-support helpers (called from generated code).
// ---------------------------------------------------------------------

/// Required-field lookup. A missing field is probed against `Null` so
/// `Option<T>` fields behave as optional, matching serde.
pub fn de_field<T: Deserialize>(v: &Value, key: &str) -> Result<T, Error> {
    match v {
        Value::Object(_) => match v.get(key) {
            Some(fv) => T::from_value(fv).map_err(|e| e.in_field(key)),
            None => T::from_value(&Value::Null).map_err(|_| Error::missing_field(key)),
        },
        other => Err(Error::expected("object", other)),
    }
}

/// `#[serde(default)]` / `#[serde(default = "path")]` field lookup.
pub fn de_field_or<T, F>(v: &Value, key: &str, default: F) -> Result<T, Error>
where
    T: Deserialize,
    F: FnOnce() -> T,
{
    match v {
        Value::Object(_) => match v.get(key) {
            Some(fv) => T::from_value(fv).map_err(|e| e.in_field(key)),
            None => Ok(default()),
        },
        other => Err(Error::expected("object", other)),
    }
}

/// `#[serde(deny_unknown_fields)]`: the first key of the object `v` that
/// is not in `expected` is an error. A non-object passes — the field
/// lookups that follow report the shape.
pub fn deny_unknown_fields(v: &Value, expected: &[&str]) -> Result<(), Error> {
    let Value::Object(fields) = v else {
        return Ok(());
    };
    match fields.iter().find(|(k, _)| !expected.contains(&k.as_str())) {
        Some((k, _)) => Err(Error::unknown_field(k, expected)),
        None => Ok(()),
    }
}

/// Externally-tagged enum helper: a single-key object is
/// `{"Variant": payload}`.
pub fn as_variant(v: &Value) -> Option<(&str, &Value)> {
    match v {
        Value::Object(fields) if fields.len() == 1 => Some((fields[0].0.as_str(), &fields[0].1)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Primitive and container impls.
// ---------------------------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::custom(format!(
                            "integer {i} out of range for {}", stringify!($t)))),
                    other => Err(Error::expected("integer", other)),
                }
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i64);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        // serde_json renders non-finite floats as null.
        if self.is_finite() {
            Value::Float(*self)
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(Error::expected("number", other)),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(xs) => {
                let item = |(i, x)| T::from_value(x).map_err(|e| e.in_index(i));
                xs.iter().enumerate().map(item).collect()
            }
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(xs) if xs.len() == 2 => {
                Ok((A::from_value(&xs[0])?, B::from_value(&xs[1])?))
            }
            other => Err(Error::expected("2-element array", other)),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize, D: Serialize> Serialize for (A, B, C, D) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
            self.3.to_value(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_missing_field_is_none() {
        let v = Value::Object(vec![("a".into(), Value::Int(1))]);
        let got: Option<u32> = de_field(&v, "b").unwrap();
        assert!(got.is_none());
        let got: u32 = de_field(&v, "a").unwrap();
        assert_eq!(got, 1);
        assert!(de_field::<u32>(&v, "b").is_err());
    }

    #[test]
    fn default_field_lookup() {
        let v = Value::Object(vec![]);
        let got: u64 = de_field_or(&v, "seed", || 42).unwrap();
        assert_eq!(got, 42);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(f64::INFINITY.to_value(), Value::Null);
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
    }

    #[test]
    fn int_range_checked() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert_eq!(u8::from_value(&Value::Int(7)).unwrap(), 7);
        // Floats promote from ints but not vice versa.
        assert_eq!(f64::from_value(&Value::Int(7)).unwrap(), 7.0);
        assert!(u8::from_value(&Value::Float(7.0)).is_err());
    }
}
