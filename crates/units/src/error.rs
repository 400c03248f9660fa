//! Error types for quantity parsing and probability construction.

use std::error::Error;
use std::fmt;

/// Error returned when parsing an engineering-notation quantity fails.
///
/// # Examples
///
/// ```
/// use ipass_units::parse_engineering;
///
/// let err = parse_engineering("1.5 qF", "F").unwrap_err();
/// assert!(err.to_string().contains("1.5 qF"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQuantityError {
    input: String,
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    BadNumber,
    BadPrefix,
}

impl ParseQuantityError {
    pub(crate) fn empty(input: &str) -> Self {
        ParseQuantityError {
            input: input.to_owned(),
            kind: ParseErrorKind::Empty,
        }
    }

    pub(crate) fn bad_number(input: &str) -> Self {
        ParseQuantityError {
            input: input.to_owned(),
            kind: ParseErrorKind::BadNumber,
        }
    }

    pub(crate) fn bad_prefix(input: &str) -> Self {
        ParseQuantityError {
            input: input.to_owned(),
            kind: ParseErrorKind::BadPrefix,
        }
    }
}

impl fmt::Display for ParseQuantityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Empty => write!(f, "empty quantity string {:?}", self.input),
            ParseErrorKind::BadNumber => {
                write!(f, "invalid number in quantity {:?}", self.input)
            }
            ParseErrorKind::BadPrefix => {
                write!(f, "unknown SI prefix or unit in quantity {:?}", self.input)
            }
        }
    }
}

impl Error for ParseQuantityError {}

/// Error returned when constructing a [`Probability`] from a value outside
/// `[0, 1]` or from a non-finite number.
///
/// [`Probability`]: crate::Probability
///
/// # Examples
///
/// ```
/// use ipass_units::Probability;
///
/// let err = Probability::new(1.5).unwrap_err();
/// assert!(err.to_string().contains("1.5"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityError {
    value: f64,
}

impl ProbabilityError {
    pub(crate) fn new(value: f64) -> Self {
        ProbabilityError { value }
    }
}

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "probability must be a finite value in [0, 1], got {}",
            self.value
        )
    }
}

impl Error for ProbabilityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ParseQuantityError::bad_prefix("1 q");
        let msg = e.to_string();
        assert!(msg.starts_with("unknown"));
        assert!(msg.contains("1 q"));

        let p = ProbabilityError::new(-0.5);
        assert!(p.to_string().contains("-0.5"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseQuantityError>();
        assert_send_sync::<ProbabilityError>();
    }
}
