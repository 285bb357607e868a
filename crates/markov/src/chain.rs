//! The validated-chain trait object the multigrid fine level runs on.

use stochcdr_linalg::{CsrMatrix, TransitionOp};

use crate::{ImplicitStochastic, StochasticMatrix};

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::StochasticMatrix {}
    impl Sealed for crate::ImplicitStochastic<'_> {}
}

/// A validated transition operator: every entry is a probability and
/// every row sums to one.
///
/// Sealed — implemented only by [`StochasticMatrix`] (materialized) and
/// [`ImplicitStochastic`] (matrix-free), so a raw operator cannot reach
/// code that relies on the stochastic invariants. Callers that need more
/// than the [`TransitionOp`] products ask [`csr`](Chain::csr) whether
/// materialized storage exists and pick their kernel from the answer.
pub trait Chain: TransitionOp + sealed::Sealed {
    /// The chain's row-renormalized CSR storage, or `None` for a chain
    /// that never materializes its matrix.
    fn csr(&self) -> Option<&CsrMatrix>;
}

impl Chain for StochasticMatrix {
    fn csr(&self) -> Option<&CsrMatrix> {
        Some(self.matrix())
    }
}

impl Chain for ImplicitStochastic<'_> {
    fn csr(&self) -> Option<&CsrMatrix> {
        None
    }
}
