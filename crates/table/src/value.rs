//! Dynamically typed cell values.

use std::cmp::Ordering;
use std::fmt;

/// A single cell of a relational table.
///
/// Quantitative attributes hold [`Value::Int`] or [`Value::Float`];
/// categorical attributes hold [`Value::Cat`]. Boolean attributes from the
/// classic association-rule setting are just categorical attributes with two
/// values (Section 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer-valued quantitative cell (age, number of cars, ...).
    Int(i64),
    /// A real-valued quantitative cell (income, balance, ...).
    Float(f64),
    /// A categorical cell (zip code, make of car, ...).
    Cat(String),
}

impl Value {
    /// The numeric view of a quantitative value, or `None` for categorical
    /// values. Integers are widened to `f64` (exact below 2^53, far beyond
    /// the domains the paper considers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Cat(_) => None,
        }
    }

    /// The categorical view of this value, or `None` for numbers.
    pub fn as_cat(&self) -> Option<&str> {
        match self {
            Value::Cat(s) => Some(s),
            _ => None,
        }
    }

    /// True if the value is numeric ([`Value::Int`] or [`Value::Float`]).
    pub fn is_quantitative(&self) -> bool {
        !matches!(self, Value::Cat(_))
    }

    /// A short name of the value's kind, used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Cat(_) => "categorical",
        }
    }

    /// Total order over numeric values (NaN sorts last, mirroring
    /// `f64::total_cmp` semantics closely enough for finite data). Panics if
    /// either side is categorical; callers compare numbers only within a
    /// quantitative column.
    pub fn cmp_numeric(&self, other: &Value) -> Ordering {
        let a = self
            .as_f64()
            .expect("cmp_numeric called on a categorical value");
        let b = other
            .as_f64()
            .expect("cmp_numeric called on a categorical value");
        a.total_cmp(&b)
    }
}

/// `v` with `-0.0` replaced by `0.0`. Tables store quantitative cells in
/// this form so that equal numbers have equal bits: `-0.0 == 0.0`, but
/// `f64::total_cmp` orders them apart.
pub(crate) fn canonical(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

impl fmt::Display for Value {
    /// Integers render without a decimal point, floats with the shortest
    /// round-trip form, categorical values verbatim.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Cat(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Cat(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Cat(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(23).as_f64(), Some(23.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Cat("yes".into()).as_f64(), None);
    }

    #[test]
    fn categorical_views() {
        assert_eq!(Value::Cat("yes".into()).as_cat(), Some("yes"));
        assert_eq!(Value::Int(1).as_cat(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(0.5), Value::Float(0.5));
        assert_eq!(Value::from("a"), Value::Cat("a".into()));
        assert_eq!(Value::from(String::from("b")), Value::Cat("b".into()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Cat("Married".into()).to_string(), "Married");
    }

    #[test]
    fn numeric_ordering_mixes_int_and_float() {
        assert_eq!(
            Value::Int(2).cmp_numeric(&Value::Float(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(3.0).cmp_numeric(&Value::Int(3)),
            Ordering::Equal
        );
    }

    #[test]
    #[should_panic(expected = "categorical")]
    fn numeric_ordering_rejects_categorical() {
        let _ = Value::Cat("x".into()).cmp_numeric(&Value::Int(1));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Int(1).kind_name(), "integer");
        assert_eq!(Value::Float(1.0).kind_name(), "float");
        assert_eq!(Value::Cat("c".into()).kind_name(), "categorical");
        assert!(Value::Int(1).is_quantitative());
        assert!(!Value::Cat("c".into()).is_quantitative());
    }
}
