use std::error::Error;
use std::fmt;

use deepoheat_autodiff::AutodiffError;
use deepoheat_chip::ChipError;
use deepoheat_fdm::FdmError;
use deepoheat_grf::GrfError;
use deepoheat_linalg::LinalgError;
use deepoheat_nn::NnError;

/// Errors produced by DeepOHeat model construction, training and
/// evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeepOHeatError {
    /// A neural-network operation failed.
    Nn(NnError),
    /// An autodiff graph operation failed.
    Autodiff(AutodiffError),
    /// A raw matrix operation failed.
    Linalg(LinalgError),
    /// The chip configuration was invalid.
    Chip(ChipError),
    /// The reference solver failed.
    Fdm(FdmError),
    /// Random-field sampling failed.
    Grf(GrfError),
    /// The operator-network configuration was inconsistent.
    InvalidConfig {
        /// Description of what was wrong.
        what: String,
    },
    /// An input did not match the model (wrong branch count or feature
    /// dimension, wrong coordinate width, …).
    InputMismatch {
        /// Description of what was wrong.
        what: String,
    },
    /// Training diverged (non-finite loss).
    Diverged {
        /// Iteration at which the loss stopped being finite.
        iteration: usize,
    },
    /// A chunked evaluation stopped at a chunk boundary because the
    /// caller's stop predicate fired (a serving deadline, for instance).
    Stopped,
}

impl fmt::Display for DeepOHeatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepOHeatError::Nn(e) => write!(f, "network failure: {e}"),
            DeepOHeatError::Autodiff(e) => write!(f, "autodiff failure: {e}"),
            DeepOHeatError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            DeepOHeatError::Chip(e) => write!(f, "chip configuration failure: {e}"),
            DeepOHeatError::Fdm(e) => write!(f, "reference solver failure: {e}"),
            DeepOHeatError::Grf(e) => write!(f, "random field failure: {e}"),
            DeepOHeatError::InvalidConfig { what } => {
                write!(f, "invalid deeponet configuration: {what}")
            }
            DeepOHeatError::InputMismatch { what } => write!(f, "input mismatch: {what}"),
            DeepOHeatError::Diverged { iteration } => {
                write!(f, "training diverged at iteration {iteration} (non-finite loss)")
            }
            DeepOHeatError::Stopped => write!(f, "evaluation stopped at a chunk boundary"),
        }
    }
}

impl Error for DeepOHeatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeepOHeatError::Nn(e) => Some(e),
            DeepOHeatError::Autodiff(e) => Some(e),
            DeepOHeatError::Linalg(e) => Some(e),
            DeepOHeatError::Chip(e) => Some(e),
            DeepOHeatError::Fdm(e) => Some(e),
            DeepOHeatError::Grf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for DeepOHeatError {
    fn from(e: NnError) -> Self {
        DeepOHeatError::Nn(e)
    }
}

impl From<AutodiffError> for DeepOHeatError {
    fn from(e: AutodiffError) -> Self {
        DeepOHeatError::Autodiff(e)
    }
}

impl From<LinalgError> for DeepOHeatError {
    fn from(e: LinalgError) -> Self {
        DeepOHeatError::Linalg(e)
    }
}

impl From<ChipError> for DeepOHeatError {
    fn from(e: ChipError) -> Self {
        DeepOHeatError::Chip(e)
    }
}

impl From<FdmError> for DeepOHeatError {
    fn from(e: FdmError) -> Self {
        DeepOHeatError::Fdm(e)
    }
}

impl From<GrfError> for DeepOHeatError {
    fn from(e: GrfError) -> Self {
        DeepOHeatError::Grf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = DeepOHeatError::InvalidConfig { what: "zero latent width".into() };
        assert!(e.to_string().contains("latent"));
        assert!(Error::source(&e).is_none());
        let e: DeepOHeatError = NnError::MissingGradient { index: 0 }.into();
        assert!(Error::source(&e).is_some());
        let e = DeepOHeatError::Diverged { iteration: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeepOHeatError>();
    }
}
