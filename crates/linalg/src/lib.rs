//! Hand-rolled sparse and dense linear algebra for Markov-chain analysis.
//!
//! This crate is the numerical substrate of the `stochcdr` workspace, which
//! reproduces Demir & Feldmann, *Stochastic Modeling and Performance
//! Evaluation for Digital Clock and Data Recovery Circuits* (DATE 2000).
//! The paper's transition probability matrices reach millions of states, are
//! extremely sparse, and are consumed almost exclusively through
//! vector-times-matrix products (`x P`) and aggregation — so this crate
//! provides exactly those kernels, built from scratch:
//!
//! * [`CooMatrix`] — triplet builder with duplicate summing,
//! * [`CsrMatrix`] — compressed sparse row storage with `x·A`, `A·x`,
//!   transpose, row iteration, pruning and scaling,
//! * [`DenseMatrix`] + [`LuFactors`] — dense direct solves for coarse grids,
//! * [`kron`] — Kronecker products/sums used by compositional FSM models,
//! * [`vecops`] — the handful of BLAS-1 kernels iterative solvers need,
//! * [`pattern`] — nonzero-pattern statistics and "spy" rendering
//!   (the paper's Figure 3),
//! * [`TransitionOp`] — the matrix-free operator interface every solver
//!   consumes, implemented by CSR/dense here and by structured
//!   backends downstream,
//! * [`par`] — a zero-dependency persistent worker pool whose kernels
//!   are bit-identical for every thread count, with cache-aware
//!   nnz-balanced row blocking ([`RowPartition`]).
//!
//! # Example
//!
//! ```
//! use stochcdr_linalg::{CooMatrix, CsrMatrix};
//!
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, 0.5);
//! coo.push(0, 1, 0.5);
//! coo.push(1, 0, 1.0);
//! let a: CsrMatrix = coo.to_csr();
//! let y = a.mul_left(&[1.0, 0.0]); // row-vector times matrix
//! assert_eq!(y, vec![0.5, 0.5]);
//! ```

#![deny(missing_docs)]
// `unsafe` is denied crate-wide and allowed back in exactly one place:
// `par`'s persistent pool, whose disjoint-chunk reconstruction and
// task-lending protocol are documented at each `unsafe` block.
#![deny(unsafe_code)]

mod coo;
mod csr;
mod dense;
mod error;
pub mod gmres;
pub mod kron;
mod lu;
mod op;
pub mod par;
pub mod pattern;
pub mod vecops;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{LinalgError, Result};
pub use gmres::{gmres, GmresOptions, GmresResult};
pub use lu::LuFactors;
pub use op::TransitionOp;
pub use par::RowPartition;
