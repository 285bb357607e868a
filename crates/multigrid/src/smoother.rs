//! Smoothers used between grid transfers.
//!
//! Every sweep's hot product routes through the chain's left product
//! (`mul_left_into`: the cached-transpose SpMV for a materialized chain,
//! the wrapped operator's kernel — the Kronecker shuffle — for an
//! implicit one), so smoothing inherits that kernel's deterministic
//! blocking and the persistent `linalg::par` worker pool on levels large
//! enough to clear the parallel gate; coarse levels stay serial by the
//! same gate.

use stochcdr_linalg::vecops;
use stochcdr_markov::stationary::{GaussSeidelSolver, JacobiSolver};
use stochcdr_markov::{Chain, StochasticMatrix};

/// The relaxation applied before and after each coarse-grid correction.
///
/// The paper interleaves "simple Gauss–Jacobi iterations" with the lumping
/// and expanding steps; Gauss–Seidel is provided as the standard stronger
/// alternative.
#[derive(Debug, Clone, PartialEq)]
pub enum Smoother {
    /// Damped Jacobi with relaxation factor `ω ∈ (0, 1]`.
    Jacobi {
        /// Damping factor.
        omega: f64,
    },
    /// Forward Gauss–Seidel sweeps.
    GaussSeidel,
    /// Plain power steps `x ← x P` (the weakest but cheapest smoother).
    Power,
}

impl Smoother {
    /// Applies `sweeps` relaxation sweeps to `x` in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != p.n()` or (for Jacobi) `ω ∉ (0, 1]`.
    pub fn apply(&self, p: &StochasticMatrix, x: &mut [f64], sweeps: usize) {
        let n = x.len();
        self.apply_ws(p, x, sweeps, &mut vec![0.0; n], &mut vec![0.0; n]);
    }

    /// Allocation-free variant of [`apply`](Self::apply) on any validated
    /// chain, with caller-owned scratch: `diag` receives the chain's main
    /// diagonal (Jacobi only, refreshed on every call) and `scratch` is a
    /// work vector, both of length `p.rows()`. The cycle loop hoists both
    /// buffers into the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree with `p.rows()`, or for
    /// Gauss–Seidel on a chain without a cached CSR transpose (which
    /// [`MultigridSolver::prepare`](crate::MultigridSolver::prepare)
    /// rejects).
    pub(crate) fn apply_ws(
        &self,
        p: &dyn Chain,
        x: &mut [f64],
        sweeps: usize,
        diag: &mut [f64],
        scratch: &mut [f64],
    ) {
        if sweeps == 0 {
            return;
        }
        match self {
            Smoother::Jacobi { omega } => {
                // The diagonal is constant across sweeps: fetch it once.
                p.diagonal_into(diag);
                let j = JacobiSolver::new(f64::MIN_POSITIVE, 1, *omega);
                for _ in 0..sweeps {
                    j.sweep_with_scratch(p, diag, x, scratch);
                }
            }
            Smoother::GaussSeidel => {
                let pt = p
                    .transpose_csr()
                    .expect("Gauss–Seidel smoothing needs a cached CSR transpose");
                for _ in 0..sweeps {
                    GaussSeidelSolver::sweep_transposed(pt, x);
                }
            }
            Smoother::Power => {
                for _ in 0..sweeps {
                    p.mul_left_into(x, scratch);
                    x.copy_from_slice(&scratch[..x.len()]);
                    vecops::normalize_l1(x);
                }
            }
        }
    }
}

impl Default for Smoother {
    /// Damped Jacobi with `ω = 0.8` — the paper's Gauss–Jacobi smoother.
    fn default() -> Self {
        Smoother::Jacobi { omega: 0.8 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochcdr_linalg::CooMatrix;
    use stochcdr_markov::ImplicitStochastic;

    fn chain() -> StochasticMatrix {
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.6);
            coo.push(i, (i + n - 1) % n, 0.3);
            coo.push(i, i, 0.1);
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn all_smoothers_reduce_residual() {
        let p = chain();
        for s in [
            Smoother::Jacobi { omega: 0.8 },
            Smoother::GaussSeidel,
            Smoother::Power,
        ] {
            let mut x: Vec<f64> = (0..16).map(|i| (i + 1) as f64).collect();
            vecops::normalize_l1(&mut x);
            let before = p.stationary_residual(&x);
            s.apply(&p, &mut x, 10);
            let after = p.stationary_residual(&x);
            assert!(after < before, "{s:?}: {after} !< {before}");
            assert!((vecops::sum(&x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_ws_matches_apply_bitwise() {
        let p = chain();
        for s in [
            Smoother::Jacobi { omega: 0.8 },
            Smoother::GaussSeidel,
            Smoother::Power,
        ] {
            let mut a: Vec<f64> = (0..16).map(|i| (i + 1) as f64).collect();
            vecops::normalize_l1(&mut a);
            let mut b = a.clone();
            let mut diag = vec![0.0; 16];
            let mut scratch = vec![f64::NAN; 16];
            // Reference: the stationary solvers' own one-sweep kernels.
            for _ in 0..7 {
                match &s {
                    Smoother::Jacobi { omega } => {
                        JacobiSolver::new(f64::MIN_POSITIVE, 1, *omega).sweep_once(&p, &mut a);
                    }
                    Smoother::GaussSeidel => {
                        GaussSeidelSolver::new(f64::MIN_POSITIVE, 1).sweep_once(&p, &mut a);
                    }
                    Smoother::Power => {
                        a = p.step(&a);
                        vecops::normalize_l1(&mut a);
                    }
                }
            }
            s.apply_ws(&p, &mut b, 7, &mut diag, &mut scratch);
            assert_eq!(a, b, "{s:?}");
        }
    }

    #[test]
    fn implicit_chain_smooths_like_materialized() {
        // The implicit chain wraps the same raw CSR the materialized chain
        // validated; its products fold the row renormalization into a
        // diagonal scale, so the Jacobi and power smoothers agree with
        // the materialized ones to rounding (Gauss–Seidel needs the
        // materialized chain's transpose).
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            // Rows sum to 1 + O(1e-7): the renormalization is not the
            // identity.
            let w = 1.0 + 1e-7 * (i % 5) as f64;
            coo.push(i, (i + 1) % n, 0.6 * w);
            coo.push(i, (i + n - 1) % n, 0.3 * w);
            coo.push(i, i, 0.1 * w);
        }
        let raw = coo.to_csr();
        let p = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        for s in [Smoother::Jacobi { omega: 0.8 }, Smoother::Power] {
            let mut a: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            vecops::normalize_l1(&mut a);
            let mut b = a.clone();
            let (mut da, mut db) = (vec![0.0; n], vec![0.0; n]);
            let mut sa = vec![f64::NAN; n];
            let mut sb = vec![f64::NAN; n];
            s.apply_ws(&p, &mut a, 5, &mut da, &mut sa);
            s.apply_ws(&imp, &mut b, 5, &mut db, &mut sb);
            let scale = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() <= 1e-12 * scale, "{s:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_sweeps_is_identity() {
        let p = chain();
        let mut x = vecops::uniform(16);
        let before = x.clone();
        Smoother::default().apply(&p, &mut x, 0);
        assert_eq!(x, before);
    }
}
