//! Error type shared by all table operations.

use std::fmt;

/// Errors produced by schema construction, table mutation, CSV parsing and
/// encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// An attribute name was declared twice in a schema.
    DuplicateAttribute(String),
    /// A schema was built with no attributes.
    EmptySchema,
    /// A row had the wrong number of cells for its schema.
    ArityMismatch {
        /// Number of attributes the schema declares.
        expected: usize,
        /// Number of cells the offending row carried.
        got: usize,
    },
    /// A cell value did not match its attribute's kind (e.g. a string in a
    /// quantitative column).
    TypeMismatch {
        /// Attribute name.
        attribute: String,
        /// Kind the schema declares for this attribute.
        expected: &'static str,
        /// Short description of what was supplied instead.
        got: String,
    },
    /// An attribute name was looked up but does not exist.
    NoSuchAttribute(String),
    /// A CSV line could not be parsed.
    Csv {
        /// 1-based line number within the input.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// A quantitative cell could not be parsed as a number.
    BadNumber {
        /// 1-based line number within the input.
        line: usize,
        /// The token that failed to parse.
        token: String,
    },
    /// A value fell outside every encoding interval / dictionary entry.
    UnencodableValue {
        /// Attribute name.
        attribute: String,
        /// Display form of the offending value.
        value: String,
    },
    /// A quantitative cell was NaN or infinite; ranges over such values
    /// are meaningless, so they are rejected at insertion.
    NonFiniteValue {
        /// Attribute name.
        attribute: String,
    },
    /// An operation that requires a non-empty table was called on an empty
    /// one.
    EmptyTable,
    /// A taxonomy was malformed or inconsistent with the data.
    Taxonomy(String),
    /// An I/O failure, carried as a string so the error stays `Clone`.
    Io(String),
    /// A read or Steps 1–2 stopped because its caller's cancellation
    /// check said so.
    Cancelled,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::DuplicateAttribute(name) => {
                write!(f, "attribute `{name}` declared more than once")
            }
            TableError::EmptySchema => write!(f, "schema has no attributes"),
            TableError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row has {got} cells but schema has {expected} attributes"
                )
            }
            TableError::TypeMismatch {
                attribute,
                expected,
                got,
            } => write!(
                f,
                "attribute `{attribute}` expects {expected} values, got {got}"
            ),
            TableError::NoSuchAttribute(name) => write!(f, "no attribute named `{name}`"),
            TableError::Csv { line, message } => {
                write!(f, "CSV parse error on line {line}: {message}")
            }
            TableError::BadNumber { line, token } => {
                write!(f, "line {line}: `{token}` is not a number")
            }
            TableError::UnencodableValue { attribute, value } => {
                write!(
                    f,
                    "value `{value}` of attribute `{attribute}` cannot be encoded"
                )
            }
            TableError::NonFiniteValue { attribute } => {
                write!(
                    f,
                    "attribute `{attribute}` received a NaN or infinite value"
                )
            }
            TableError::EmptyTable => write!(f, "operation requires a non-empty table"),
            TableError::Taxonomy(message) => write!(f, "taxonomy error: {message}"),
            TableError::Io(message) => write!(f, "I/O error: {message}"),
            TableError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl TableError {
    /// This error as met `lines` lines further into the input: a CSV or
    /// number error's line moved down by `lines`, any other unchanged. A
    /// reader of one part of an input reports its lines this way.
    pub fn after_lines(self, lines: usize) -> TableError {
        match self {
            TableError::Csv { line, message } => TableError::Csv {
                line: line + lines,
                message,
            },
            TableError::BadNumber { line, token } => TableError::BadNumber {
                line: line + lines,
                token,
            },
            other => other,
        }
    }
}

impl std::error::Error for TableError {}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TableError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert_eq!(e.to_string(), "row has 2 cells but schema has 3 attributes");
        let e = TableError::NoSuchAttribute("age".into());
        assert!(e.to_string().contains("age"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: TableError = io.into();
        assert!(matches!(e, TableError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
