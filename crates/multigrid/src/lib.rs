//! Multi-level aggregation/disaggregation ("algebraic multigrid") solver
//! for stationary distributions of large Markov chains.
//!
//! This crate implements the paper's dedicated solver: "a specialized
//! multi-grid method which takes advantage of the underlying problem
//! structure and is capable of solving million state problems in less than
//! an hour". The method is the multi-level aggregation algorithm of Horton
//! & Leutenegger, built from three ingredients:
//!
//! 1. **Smoothing** — a few damped ("Gauss–") Jacobi or Gauss–Seidel sweeps
//!    on the current level's stationarity equations,
//! 2. **Aggregation (restriction)** — lump the chain with respect to the
//!    current iterate (weak lumping, [`stochcdr_markov::lumping`]) onto a
//!    coarser partition. The paper's coarsening "lumps the two states
//!    corresponding to consecutive discretized phase error values", which is
//!    [`GeometricCoarsening`]; [`PairwiseCoarsening`] is the structure-blind
//!    fallback,
//! 3. **Disaggregation (prolongation)** — distribute the coarse solution
//!    back over each aggregate proportionally to the fine iterate,
//!    multiplicatively correcting it.
//!
//! The coarsest level ("solved exactly with a direct method") uses GTH
//! elimination.
//!
//! The solver is split into a one-time **symbolic setup** and cheap
//! **numeric cycles**: [`MultigridSolver::prepare`] builds an
//! [`MgHierarchy`] (cached coarse sparsity patterns, scatter maps, and all
//! per-level workspaces), after which every cycle is an allocation-free
//! numeric refresh — see [`hierarchy`](MgHierarchy) for the invalidation
//! rules.
//!
//! # Example
//!
//! ```
//! use stochcdr_linalg::CooMatrix;
//! use stochcdr_markov::{StochasticMatrix, stationary::StationarySolver};
//! use stochcdr_multigrid::{MultigridSolver, PairwiseCoarsening};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Random walk on 64 states.
//! let n = 64;
//! let mut coo = CooMatrix::new(n, n);
//! for i in 0..n {
//!     let (up, down) = (0.4, 0.6);
//!     if i == 0 { coo.push(0, 0, down); } else { coo.push(i, i - 1, down); }
//!     if i == n - 1 { coo.push(i, i, up); } else { coo.push(i, i + 1, up); }
//! }
//! let p = StochasticMatrix::new(coo.to_csr())?;
//! let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(n))
//!     .build();
//! let eta = solver.solve(&p, None)?;
//! assert!(p.stationary_residual(&eta.distribution) < 1e-10);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod coarsen;
mod hierarchy;
mod smoother;
mod solver;

pub use adaptive::{StrengthCoarsening, MAX_AGGREGATE};
pub use coarsen::{GeometricCoarsening, PairwiseCoarsening};
pub use hierarchy::{MgHierarchy, MgPhases};
pub use smoother::Smoother;
pub use solver::{
    CycleKind, CycleSchedule, KrylovAccel, MultigridBuilder, MultigridSolver, MultigridStats,
    COARSE_DIRECT_MAX, DEFAULT_KRYLOV_RESTART, ESCALATE_TO_F, ESCALATE_TO_W, MAX_KRYLOV_WINDOW,
    MAX_W_DEPTH,
};
