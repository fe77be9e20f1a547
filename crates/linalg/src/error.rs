use std::error::Error;
use std::fmt;

/// Errors produced by linear-algebra operations in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A dimension argument was invalid (for example, zero rows).
    InvalidDimension {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Description of which dimension was wrong.
        what: String,
    },
    /// A matrix expected to be symmetric positive definite was not.
    NotPositiveDefinite {
        /// Index of the pivot where factorisation broke down.
        pivot: usize,
        /// Value of the offending diagonal entry.
        value: f64,
    },
    /// Raw data length did not match the requested matrix shape.
    DataLengthMismatch {
        /// Expected number of elements (`rows * cols`).
        expected: usize,
        /// Provided number of elements.
        actual: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::InvalidDimension { op, what } => {
                write!(f, "invalid dimension in {op}: {what}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(f, "matrix is not positive definite: pivot {pivot} has value {value:e}")
            }
            LinalgError::DataLengthMismatch { expected, actual } => {
                write!(f, "data length mismatch: expected {expected} elements, got {actual}")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            LinalgError::ShapeMismatch { op: "matmul", lhs: (2, 3), rhs: (4, 5) },
            LinalgError::InvalidDimension { op: "new", what: "zero rows".into() },
            LinalgError::NotPositiveDefinite { pivot: 3, value: -1.0 },
            LinalgError::DataLengthMismatch { expected: 6, actual: 5 },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
