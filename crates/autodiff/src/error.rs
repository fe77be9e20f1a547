use std::error::Error;
use std::fmt;

use deepoheat_linalg::LinalgError;

/// Errors produced when building or differentiating a computation graph.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AutodiffError {
    /// An underlying matrix operation failed (usually a shape mismatch).
    Linalg(LinalgError),
    /// A [`crate::Var`] referred to a node that does not exist in this graph.
    ///
    /// This typically means a handle from a previous iteration's graph was
    /// reused after the graph was rebuilt.
    UnknownVariable {
        /// The offending node id.
        id: usize,
        /// Number of nodes currently in the graph.
        graph_len: usize,
    },
    /// `backward` was called on a node that is not a `1 × 1` scalar.
    NonScalarLoss {
        /// Shape of the offending node.
        shape: (usize, usize),
    },
    /// An activation derivative of higher order than the jet machinery
    /// provides was requested.
    UnsupportedOrder {
        /// The requested derivative order.
        order: u8,
        /// The highest order available.
        max: u8,
    },
    /// A jet carried a second derivative on an axis without the first
    /// derivative on that axis, which the second derivative's jet rule
    /// reads.
    IncompleteJet {
        /// The axis missing its first derivative.
        axis: usize,
    },
}

impl fmt::Display for AutodiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutodiffError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            AutodiffError::UnknownVariable { id, graph_len } => {
                write!(f, "variable id {id} does not exist in this graph of {graph_len} nodes")
            }
            AutodiffError::UnsupportedOrder { order, max } => {
                write!(f, "activation derivative order {order} is not supported (max {max})")
            }
            AutodiffError::NonScalarLoss { shape } => {
                write!(f, "backward requires a 1x1 scalar loss, got {}x{}", shape.0, shape.1)
            }
            AutodiffError::IncompleteJet { axis } => {
                write!(f, "jet carries a second derivative on axis {axis} without the first")
            }
        }
    }
}

impl Error for AutodiffError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AutodiffError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for AutodiffError {
    fn from(e: LinalgError) -> Self {
        AutodiffError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AutodiffError::from(LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (1, 2),
            rhs: (3, 4),
        });
        assert!(e.to_string().contains("matmul"));
        assert!(Error::source(&e).is_some());
        let e = AutodiffError::NonScalarLoss { shape: (2, 3) };
        assert!(e.to_string().contains("2x3"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AutodiffError>();
    }
}
