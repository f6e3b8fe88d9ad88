//! The variant value type used throughout the data model.
//!
//! The paper's key:value data model (§III-A) allows string, integer, and
//! floating-point attribute values. We additionally support unsigned
//! integers and booleans, which the Caliper implementation also provides.
//!
//! `Value` must be usable as part of an aggregation key, which requires
//! `Eq` and `Hash`. Floating-point values are compared and hashed by their
//! bit pattern: two floats are the same key iff they are bitwise identical.
//! This matches how the aggregation database in the paper treats key
//! attributes (a "compact, collision-free hash" of the encoded entries).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of an attribute or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// UTF-8 string data.
    Str,
    /// Signed 64-bit integer.
    Int,
    /// Unsigned 64-bit integer.
    UInt,
    /// 64-bit IEEE-754 floating point.
    Float,
    /// Boolean flag.
    Bool,
}

impl ValueType {
    /// Short lowercase name used in the `.cali` stream encoding and in
    /// attribute-creation configuration strings.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Str => "string",
            ValueType::Int => "int",
            ValueType::UInt => "uint",
            ValueType::Float => "double",
            ValueType::Bool => "bool",
        }
    }

    /// Parse a type name as written in the `.cali` encoding.
    pub fn from_name(name: &str) -> Option<ValueType> {
        match name {
            "string" | "str" => Some(ValueType::Str),
            "int" | "i64" => Some(ValueType::Int),
            "uint" | "u64" => Some(ValueType::UInt),
            "double" | "float" | "f64" => Some(ValueType::Float),
            "bool" => Some(ValueType::Bool),
            _ => None,
        }
    }

    /// True for `Int`, `UInt`, and `Float`.
    pub fn is_numeric(self) -> bool {
        matches!(self, ValueType::Int | ValueType::UInt | ValueType::Float)
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single attribute value.
///
/// Strings are reference-counted so that records can be cloned cheaply;
/// snapshot processing on the runtime hot path never copies string bytes.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string value.
    Str(Arc<str>),
    /// A signed integer value.
    Int(i64),
    /// An unsigned integer value.
    UInt(u64),
    /// A floating-point value.
    Float(f64),
    /// A boolean value.
    Bool(bool),
}

impl Value {
    /// Create a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Str(_) => ValueType::Str,
            Value::Int(_) => ValueType::Int,
            Value::UInt(_) => ValueType::UInt,
            Value::Float(_) => ValueType::Float,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Numeric view as `f64`. Strings parse if possible; booleans map to
    /// 0.0/1.0. Returns `None` for non-numeric strings.
    pub fn to_f64(&self) -> Option<f64> {
        match self {
            Value::Str(s) => s.parse().ok(),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        }
    }

    /// Numeric view as `i64`, truncating floats.
    pub fn to_i64(&self) -> Option<i64> {
        match self {
            Value::Str(s) => s.parse().ok(),
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            Value::Float(f) => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
        }
    }

    /// Numeric view as `u64`. Negative values yield `None`.
    pub fn to_u64(&self) -> Option<u64> {
        match self {
            Value::Str(s) => s.parse().ok(),
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::UInt(u) => Some(*u),
            Value::Float(f) if *f >= 0.0 => Some(*f as u64),
            Value::Float(_) => None,
            Value::Bool(b) => Some(*b as u64),
        }
    }

    /// Borrow the string contents if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value as text, without allocating for strings.
    pub fn to_text(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// Parse text into a value of the given type. String parsing never
    /// fails; numeric parsing follows Rust's standard syntax.
    pub fn parse_typed(text: &str, vtype: ValueType) -> Option<Value> {
        match vtype {
            ValueType::Str => Some(Value::str(text)),
            ValueType::Int => text.parse().ok().map(Value::Int),
            ValueType::UInt => text.parse().ok().map(Value::UInt),
            ValueType::Float => text.parse().ok().map(Value::Float),
            ValueType::Bool => match text {
                "true" | "1" => Some(Value::Bool(true)),
                "false" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
        }
    }

    /// Best-effort parse without a type hint: tries int, uint, float, bool,
    /// falling back to string. Used by the query language for literals.
    pub fn parse_guess(text: &str) -> Value {
        if let Ok(i) = text.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(u) = text.parse::<u64>() {
            return Value::UInt(u);
        }
        if let Ok(f) = text.parse::<f64>() {
            return Value::Float(f);
        }
        match text {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::str(text),
        }
    }

    /// Total order across values: numeric values (int, uint, float,
    /// bool) compare numerically with each other; strings compare
    /// lexically with each other; every number sorts before every
    /// string, regardless of the string's content. NaN sorts after all
    /// numbers.
    ///
    /// The class-based rule (rather than parsing numeric-looking
    /// strings) is what makes this a lawful total order — `"0"` vs
    /// `"‑"` vs `0` would otherwise violate transitivity. The property
    /// tests in `tests/proptests.rs` verify antisymmetry and
    /// transitivity.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
            _ => {
                let a = self.to_f64().unwrap_or(f64::NAN);
                let b = other.to_f64().unwrap_or(f64::NAN);
                a.total_cmp(&b)
            }
        }
    }

    /// Numeric addition with type preservation where possible. Used by the
    /// `sum` reduction operator.
    pub fn checked_add(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(Int(a.checked_add(*b)?)),
            (UInt(a), UInt(b)) => Some(UInt(a.checked_add(*b)?)),
            (Float(a), Float(b)) => Some(Float(a + b)),
            _ => Some(Float(self.to_f64()? + other.to_f64()?)),
        }
    }

    /// True if this value is "truthy": non-empty string, nonzero number,
    /// `true`. Used to coerce a value to a `bool` attribute (a `WHERE
    /// attribute` condition tests presence, not truth).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Str(s) => !s.is_empty(),
            Value::Int(i) => *i != 0,
            Value::UInt(u) => *u != 0,
            Value::Float(f) => *f != 0.0,
            Value::Bool(b) => *b,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Str(a), Str(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            // Bit-pattern equality so Value can implement Eq and Hash.
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Bool(a), Bool(b)) => a == b,
            // Cross-type integer equality (17i64 == 17u64): the query
            // language produces Int literals but data may carry UInt.
            (Int(a), UInt(b)) | (UInt(b), Int(a)) => {
                u64::try_from(*a).map(|a| a == *b).unwrap_or(false)
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Str(s) => {
                state.write_u8(0);
                s.hash(state);
            }
            // Int and UInt with the same non-negative magnitude must hash
            // alike because they compare equal.
            Value::Int(i) => {
                if let Ok(u) = u64::try_from(*i) {
                    state.write_u8(1);
                    state.write_u64(u);
                } else {
                    state.write_u8(2);
                    state.write_i64(*i);
                }
            }
            Value::UInt(u) => {
                state.write_u8(1);
                state.write_u64(*u);
            }
            Value::Float(f) => {
                state.write_u8(3);
                state.write_u64(f.to_bits());
            }
            Value::Bool(b) => {
                state.write_u8(4);
                state.write_u8(*b as u8);
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Value {
        Value::UInt(u)
    }
}

impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::UInt(u as u64)
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::UInt(u as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_names_roundtrip() {
        for t in [
            ValueType::Str,
            ValueType::Int,
            ValueType::UInt,
            ValueType::Float,
            ValueType::Bool,
        ] {
            assert_eq!(ValueType::from_name(t.name()), Some(t));
        }
        assert_eq!(ValueType::from_name("nope"), None);
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(Value::Int(-3).to_f64(), Some(-3.0));
        assert_eq!(Value::UInt(7).to_i64(), Some(7));
        assert_eq!(Value::Float(2.5).to_i64(), Some(2));
        assert_eq!(Value::Int(-1).to_u64(), None);
        assert_eq!(Value::str("42").to_f64(), Some(42.0));
        assert_eq!(Value::str("x").to_f64(), None);
        assert_eq!(Value::Bool(true).to_f64(), Some(1.0));
    }

    #[test]
    fn parse_typed_respects_type() {
        assert_eq!(
            Value::parse_typed("17", ValueType::Int),
            Some(Value::Int(17))
        );
        assert_eq!(
            Value::parse_typed("17", ValueType::Str),
            Some(Value::str("17"))
        );
        assert_eq!(Value::parse_typed("x", ValueType::Int), None);
        assert_eq!(
            Value::parse_typed("1", ValueType::Bool),
            Some(Value::Bool(true))
        );
    }

    #[test]
    fn parse_guess_prefers_int() {
        assert_eq!(Value::parse_guess("12"), Value::Int(12));
        assert_eq!(Value::parse_guess("-12"), Value::Int(-12));
        assert_eq!(Value::parse_guess("12.5"), Value::Float(12.5));
        assert_eq!(Value::parse_guess("true"), Value::Bool(true));
        assert_eq!(Value::parse_guess("foo"), Value::str("foo"));
        // Larger than i64::MAX falls through to u64.
        assert_eq!(
            Value::parse_guess("18446744073709551615"),
            Value::UInt(u64::MAX)
        );
    }

    #[test]
    fn mixed_int_uint_equality_and_hash() {
        assert_eq!(Value::Int(17), Value::UInt(17));
        assert_eq!(hash_of(&Value::Int(17)), hash_of(&Value::UInt(17)));
        assert_ne!(Value::Int(-1), Value::UInt(u64::MAX));
    }

    #[test]
    fn float_bit_equality() {
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn total_order_is_sane() {
        assert_eq!(
            Value::Int(1).total_cmp(&Value::Float(1.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::str("abc").total_cmp(&Value::str("abd")),
            Ordering::Less
        );
        assert_eq!(Value::Int(2).total_cmp(&Value::UInt(2)), Ordering::Equal);
        // numbers sort before non-numeric strings
        assert_eq!(
            Value::Int(999).total_cmp(&Value::str("a")),
            Ordering::Less
        );
    }

    #[test]
    fn checked_add_preserves_types() {
        assert_eq!(
            Value::Int(2).checked_add(&Value::Int(3)),
            Some(Value::Int(5))
        );
        assert_eq!(
            Value::UInt(2).checked_add(&Value::UInt(3)),
            Some(Value::UInt(5))
        );
        assert_eq!(
            Value::Int(2).checked_add(&Value::Float(0.5)),
            Some(Value::Float(2.5))
        );
        assert_eq!(Value::Int(i64::MAX).checked_add(&Value::Int(1)), None);
    }

    #[test]
    fn truthiness() {
        assert!(Value::str("x").is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Float(0.1).is_truthy());
    }

    #[test]
    fn display_roundtrip_for_numbers() {
        for v in [Value::Int(-7), Value::UInt(7), Value::Float(2.25)] {
            let text = v.to_string();
            assert_eq!(Value::parse_typed(&text, v.value_type()), Some(v));
        }
    }
}
