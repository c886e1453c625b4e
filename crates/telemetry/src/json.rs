//! The one JSON writer in the workspace: a tiny value model that renders
//! compact JSON through [`Display`](fmt::Display).
//!
//! The [`Recorder`](crate::Recorder) export and the bench binaries'
//! `BENCH_JSON` rows both build [`JsonValue`]s; no JSON crate is available
//! offline, so the writer lives here, in the lowest crate that emits JSON.

use std::fmt;

/// A JSON value: the subset the workspace emits.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => escape(s, f),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(key, f)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Builds a [`JsonValue::Obj`] row from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_serialize_as_json() {
        let doc = obj(vec![
            ("name", "fig07".into()),
            ("ok", true.into()),
            ("tokens_per_sec", 64.25f64.into()),
            ("replicas", 4u64.into()),
            ("none", JsonValue::Null),
            ("nan", JsonValue::Num(f64::NAN)),
            (
                "rows",
                JsonValue::Arr(vec![obj(vec![("x", 1u64.into())]), JsonValue::Bool(false)]),
            ),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"fig07","ok":true,"tokens_per_sec":64.25,"replicas":4,"none":null,"nan":null,"rows":[{"x":1},false]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let v = JsonValue::Str("a\"b\\c\nd\u{1}".to_owned());
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
