use std::error::Error;
use std::fmt;

use deepoheat_linalg::LinalgError;

/// Errors produced by the finite-volume heat solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FdmError {
    /// A linear-algebra operation failed (assembly or the CG solve).
    Linalg(LinalgError),
    /// The grid was configured with invalid dimensions.
    InvalidGrid {
        /// Description of what was wrong.
        what: String,
    },
    /// A material or source field did not match the grid.
    FieldMismatch {
        /// Name of the offending field.
        field: &'static str,
        /// Expected number of entries.
        expected: usize,
        /// Provided number of entries.
        actual: usize,
    },
    /// A boundary-condition map did not match the face it was applied to.
    BoundaryMismatch {
        /// The face the condition was applied to.
        face: &'static str,
        /// Expected map shape `(rows, cols)`.
        expected: (usize, usize),
        /// Provided map shape.
        actual: (usize, usize),
    },
    /// A physical parameter was out of range (e.g. non-positive
    /// conductivity).
    InvalidParameter {
        /// Description of what was wrong.
        what: String,
    },
    /// The linear solve did not converge.
    SolveFailed {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// A transient integration failed mid-trajectory. The step index pins
    /// down *which* backward-Euler solve stalled; use
    /// [`crate::HeatProblem::solve_transient_partial`] to also recover the
    /// last good state.
    TransientStepFailed {
        /// Zero-based index of the step whose linear solve failed.
        step: usize,
        /// CG iterations performed in the failing step.
        iterations: usize,
        /// Relative residual the failing step stopped at.
        residual: f64,
    },
}

impl fmt::Display for FdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdmError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            FdmError::InvalidGrid { what } => write!(f, "invalid grid: {what}"),
            FdmError::FieldMismatch { field, expected, actual } => {
                write!(f, "{field} field has {actual} entries, expected {expected}")
            }
            FdmError::BoundaryMismatch { face, expected, actual } => write!(
                f,
                "boundary map on {face} is {}x{}, expected {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            FdmError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            FdmError::SolveFailed { iterations, residual } => {
                write!(f, "heat solve did not converge after {iterations} iterations (residual {residual:e})")
            }
            FdmError::TransientStepFailed { step, iterations, residual } => {
                write!(
                    f,
                    "transient step {step} did not converge after {iterations} iterations (residual {residual:e})"
                )
            }
        }
    }
}

impl Error for FdmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FdmError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for FdmError {
    fn from(e: LinalgError) -> Self {
        FdmError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(FdmError::InvalidGrid { what: "zero nodes".into() }
            .to_string()
            .contains("zero nodes"));
        let e = FdmError::FieldMismatch { field: "conductivity", expected: 8, actual: 4 };
        assert!(e.to_string().contains("conductivity"));
        let e = FdmError::BoundaryMismatch { face: "z_max", expected: (21, 21), actual: (20, 20) };
        assert!(e.to_string().contains("21x21"));
        let e = FdmError::SolveFailed { iterations: 10, residual: 0.5 };
        assert!(e.to_string().contains("10"));
    }
}
