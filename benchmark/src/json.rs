//! JSON in and out, over the repo's vendored `serde` shim (crates.io is
//! unreachable here; the shim's [`Value`] tree is all the harness needs
//! to write results and read manifests, `BENCHMARK.json` and its own
//! result files back).

pub use serde::Value;

/// Parse JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde::json::parse(text).map_err(|e| e.to_string())
}

/// Read and parse a JSON file.
pub fn parse_file(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Indented JSON text.
pub fn pretty(v: &Value) -> String {
    serde::json::to_string_pretty(v)
}

/// One-line JSON text.
pub fn compact(v: &Value) -> String {
    serde::json::to_string(v)
}

/// An object from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A number (non-finite numbers have no JSON form and become `null`).
pub fn number(x: f64) -> Value {
    Value::F64(x)
}

/// A whole number.
pub fn integer(x: u64) -> Value {
    i64::try_from(x).map_or(Value::U64(x), Value::I64)
}

/// `v[name]`, or an error naming the missing field.
pub fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.field(name).map_err(|e| e.to_string())
}

/// `v` as an array.
pub fn array(v: &Value) -> Result<&[Value], String> {
    v.as_array().map_err(|e| e.to_string())
}

/// `v` as a number, whatever its JSON spelling; `None` for anything else
/// (`null` included).
pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::I64(x) => Some(x as f64),
        Value::U64(x) => Some(x as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

/// `v[name]` as a non-negative whole number.
pub fn field_u64(v: &Value, name: &str) -> Result<u64, String> {
    match *field(v, name)? {
        Value::I64(x) if x >= 0 => Ok(x as u64),
        Value::U64(x) => Ok(x),
        _ => Err(format!("field `{name}` is not a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_accessors() {
        let v = object([
            ("name", string("x")),
            ("n", integer(3)),
            ("big", integer(u64::MAX)),
            ("x", number(1.5)),
            ("nan", number(f64::NAN)),
            ("list", Value::Array(vec![integer(1), Value::Null])),
        ]);
        let back = parse(&pretty(&v)).unwrap();
        assert_eq!(field_u64(&back, "n").unwrap(), 3);
        assert_eq!(field_u64(&back, "big").unwrap(), u64::MAX);
        assert_eq!(as_f64(field(&back, "x").unwrap()), Some(1.5));
        assert_eq!(as_f64(field(&back, "nan").unwrap()), None);
        assert_eq!(array(field(&back, "list").unwrap()).unwrap().len(), 2);
        assert!(field(&back, "missing").is_err());
        assert!(field_u64(&back, "x").is_err());
        assert!(!compact(&v).contains('\n'));
        assert!(parse("{").is_err());
    }
}
