use std::error::Error;
use std::fmt;

use deepoheat_autodiff::AutodiffError;
use deepoheat_linalg::LinalgError;

/// Errors produced by neural-network construction, binding and optimisation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// An autodiff graph operation failed.
    Autodiff(AutodiffError),
    /// A raw matrix operation failed.
    Linalg(LinalgError),
    /// A network was configured with an invalid architecture.
    InvalidArchitecture {
        /// Description of what was wrong.
        what: String,
    },
    /// The optimiser was given gradients that do not match the model.
    ParameterMismatch {
        /// Number of parameters the model exposes.
        model: usize,
        /// Number of parameter gradients that were supplied or found.
        supplied: usize,
    },
    /// A required gradient was missing (the parameter did not influence the
    /// loss, which almost always indicates a wiring bug in the caller).
    MissingGradient {
        /// Index of the parameter whose gradient was absent.
        index: usize,
    },
    /// The global gradient norm was NaN or infinite; the optimiser refuses
    /// to apply the update so the parameters stay uncorrupted.
    NonFiniteGradient,
    /// A jet channel was read (or required) that the jet does not carry;
    /// see [`crate::JetChannels`].
    AbsentJetChannel {
        /// Derivative order of the channel: 1 or 2.
        order: u8,
        /// Axis of the derivative.
        axis: usize,
    },
    /// The global gradient norm exceeded the configured ceiling
    /// ([`crate::AdamConfig::max_gradient_norm`]); no update was applied.
    GradientExplosion {
        /// The offending L2 gradient norm.
        norm: f64,
        /// The configured ceiling it exceeded.
        limit: f64,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Autodiff(e) => write!(f, "autodiff failure: {e}"),
            NnError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            NnError::InvalidArchitecture { what } => {
                write!(f, "invalid network architecture: {what}")
            }
            NnError::ParameterMismatch { model, supplied } => {
                write!(f, "parameter count mismatch: model has {model}, got {supplied}")
            }
            NnError::MissingGradient { index } => {
                write!(f, "missing gradient for parameter {index} (did it influence the loss?)")
            }
            NnError::NonFiniteGradient => {
                write!(f, "gradient norm is not finite; update rejected to protect parameters")
            }
            NnError::AbsentJetChannel { order, axis } => {
                write!(f, "jet carries no order-{order} derivative channel on axis {axis}")
            }
            NnError::GradientExplosion { norm, limit } => {
                write!(f, "gradient norm {norm:.3e} exceeds the configured limit {limit:.3e}")
            }
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Autodiff(e) => Some(e),
            NnError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AutodiffError> for NnError {
    fn from(e: AutodiffError) -> Self {
        NnError::Autodiff(e)
    }
}

impl From<LinalgError> for NnError {
    fn from(e: LinalgError) -> Self {
        NnError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: NnError = LinalgError::DataLengthMismatch { expected: 4, actual: 2 }.into();
        assert!(e.to_string().contains("linear algebra"));
        assert!(Error::source(&e).is_some());
        let e = NnError::ParameterMismatch { model: 4, supplied: 3 };
        assert!(e.to_string().contains('4'));
        let e = NnError::MissingGradient { index: 2 };
        assert!(e.to_string().contains('2'));
        let e = NnError::AbsentJetChannel { order: 2, axis: 1 };
        assert!(e.to_string().contains("order-2") && e.to_string().contains("axis 1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
