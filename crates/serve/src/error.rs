use std::error::Error;
use std::fmt;

use deepoheat::DeepOHeatError;

/// Errors produced by the serving engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A [`crate::ServeOptions`] field was out of range.
    InvalidOptions {
        /// Description of the offending field.
        what: String,
    },
    /// The underlying model evaluation failed.
    Model(DeepOHeatError),
    /// A sensor value or query coordinate was NaN or infinite. Rejected
    /// before either cache is filled; permanent, so the front-end never
    /// retries it or counts it against a shard's health.
    InvalidInput {
        /// Which input, and the first offending value.
        what: String,
    },
    /// The request was shed because the target shard's admission queue
    /// was full — the typed backpressure signal; callers should back off
    /// and resubmit.
    Overloaded {
        /// Shard whose queue refused the request.
        shard: usize,
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// The request's deadline expired before a result was produced.
    DeadlineExceeded {
        /// Pipeline stage that observed the expiry (`"admission"`,
        /// `"queue"`, or `"trunk"` — between trunk-basis chunks, or before
        /// the combine).
        stage: &'static str,
    },
    /// A shard kept failing past the retry budget.
    ShardFailed {
        /// Shard that served the final attempt.
        shard: usize,
        /// Total attempts made (initial try plus retries).
        attempts: u32,
        /// Description of the last failure.
        what: String,
    },
    /// The front-end is shutting down and no longer admits requests.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidOptions { what } => write!(f, "invalid serve options: {what}"),
            ServeError::Model(e) => write!(f, "model evaluation failure: {e}"),
            ServeError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            ServeError::Overloaded { shard, depth } => {
                write!(f, "overloaded: shard {shard} admission queue full at depth {depth}")
            }
            ServeError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded during {stage}")
            }
            ServeError::ShardFailed { shard, attempts, what } => {
                write!(f, "shard {shard} failed after {attempts} attempt(s): {what}")
            }
            ServeError::ShuttingDown => write!(f, "serving front-end is shutting down"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeepOHeatError> for ServeError {
    fn from(e: DeepOHeatError) -> Self {
        ServeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            ServeError::InvalidOptions { what: "zero cache capacity".into() },
            ServeError::Model(DeepOHeatError::InputMismatch { what: "bad".into() }),
            ServeError::InvalidInput { what: "sensor value NaN at flat index 3".into() },
            ServeError::Overloaded { shard: 1, depth: 16 },
            ServeError::DeadlineExceeded { stage: "queue" },
            ServeError::ShardFailed { shard: 0, attempts: 3, what: "injected".into() },
            ServeError::ShuttingDown,
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
        assert_send_sync::<ServeError>();
    }
}
