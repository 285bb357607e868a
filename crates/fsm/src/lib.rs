//! Finite state machines with stochastic inputs — the paper's modeling
//! formalism.
//!
//! Demir & Feldmann model a CDR circuit as a *network of FSMs whose inputs
//! are functions on Markov-chain state spaces*: "the analyzed circuit is
//! modeled as finite state machines with inputs described as functions on a
//! Markov chain state-space ... the entire system can be modeled by a
//! larger resulting Markov chain". This crate implements that construction:
//!
//! * [`ProductSpace`] — mixed-radix indexing of joint component states,
//! * [`TpmBuilder`] — accumulates per-state transition distributions into a
//!   sparse TPM, merging duplicate successors (the marginalization that
//!   keeps row fan-out small); [`build_rows`] is its parallel counterpart
//!   for row generators that are pure functions of the state index,
//! * [`Stage`] / [`CascadeNetwork`] — a feed-forward network of FSM stages
//!   with private stochastic inputs and full-state feedback (the paper's
//!   Figure 2 topology: data source → phase detector → counter → phase
//!   accumulator, with the phase state fed back to the detector),
//! * [`reach`] — reachable-state-space exploration ("the state set is the
//!   reachable state space of the MC, which is a subset of the Cartesian
//!   product"),
//! * [`KroneckerOp`] — matrix-free product-form representation for
//!   independent components (the "hierarchical Kronecker algebra"
//!   alternative the paper cites via Plateau/Buchholz).
//!
//! # Example: a two-stage network
//!
//! ```
//! use stochcdr_fsm::{CascadeNetwork, Stage, StageOutput};
//!
//! /// A fair coin: emits 0/1 with probability one half; stateless.
//! struct Coin;
//! impl Stage for Coin {
//!     fn state_count(&self) -> usize { 1 }
//!     fn noise(&self) -> Vec<(i64, f64)> { vec![(0, 0.5), (1, 0.5)] }
//!     fn step(&self, _s: usize, noise: i64, _up: i64, _joint: &[usize]) -> StageOutput {
//!         StageOutput { next_state: 0, output: noise }
//!     }
//! }
//!
//! /// Parity accumulator driven by the coin.
//! struct Parity;
//! impl Stage for Parity {
//!     fn state_count(&self) -> usize { 2 }
//!     fn noise(&self) -> Vec<(i64, f64)> { vec![(0, 1.0)] }
//!     fn step(&self, s: usize, _n: i64, up: i64, _joint: &[usize]) -> StageOutput {
//!         StageOutput { next_state: (s + up as usize) % 2, output: 0 }
//!     }
//! }
//!
//! let net = CascadeNetwork::new(vec![Box::new(Coin), Box::new(Parity)]);
//! let tpm = net.build_tpm();
//! assert_eq!(tpm.rows(), 2);
//! assert_eq!(tpm.get(0, 1), 0.5); // parity flips with probability 1/2
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
pub mod cache;
mod error;
mod kron_op;
pub mod reach;
mod space;
mod stage;

pub use builder::{build_rows, RowEmitter, TpmBuilder};
pub use cache::{CacheStats, FactorCache, KeyHasher, KindStats};
pub use error::{FsmError, Result};
pub use kron_op::KroneckerOp;
pub use space::ProductSpace;
pub use stage::{CascadeNetwork, Stage, StageOutput};
