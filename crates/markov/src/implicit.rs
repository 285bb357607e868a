//! Implicit (matrix-free) validated transition operators.
//!
//! [`StochasticMatrix`](crate::StochasticMatrix) validates a materialized
//! CSR and renormalizes every row once at construction. For product-form
//! chains whose joint TPM never fits in memory (the Kronecker operator
//! path), [`ImplicitStochastic`] provides the same contract without
//! materializing anything: it wraps a forward operator, validates rows
//! by traversal, and stores only the per-row renormalization factors.
//!
//! # Agreement with the materialized chain
//!
//! The products run the wrapped operator's own kernel — for a Kronecker
//! operator, the mode-by-mode shuffle — with the row renormalization
//! folded into a diagonal scale: `x·P = (s ⊙ x)·A` and
//! `P·x = s ⊙ (A·x)`, where `A` is the raw operator and `s` the
//! per-row factors. The materialized chain stores `a·s` per entry and
//! sums in ascending source order instead, so the two agree to rounding
//! only: an implicit solve takes the same cycles over the same level
//! sizes as the materialized one, with π within 1e-12 relative.
//!
//! Row traversal and the diagonal serve `a · s[row]` — the exact bits
//! the materialized chain stores — so the level-0 lumping refresh and
//! the smoother's diagonal are bitwise those of the materialized chain.
//! Every kernel keeps the workspace determinism contract (each output
//! element produced wholly by one worker in serial order), so each path
//! is bit-identical across thread counts.

use std::sync::Mutex;

use stochcdr_linalg::{par, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result};

/// A validated stochastic operator that never materializes its matrix.
///
/// Wraps a forward [`TransitionOp`] (rows = source states) plus the
/// per-row renormalization factors computed at validation time. Row
/// traversal serves `raw · scale[row]` values — the exact bits a
/// materialized [`StochasticMatrix`](crate::StochasticMatrix) of the
/// same operator stores; the products apply the operator's own kernel
/// around a diagonal scale.
pub struct ImplicitStochastic<'a> {
    fwd: &'a dyn TransitionOp,
    /// `scale[r] = 1 / Σ_j raw(r, j)` — the row-renormalization factor
    /// `StochasticMatrix::with_tolerance` bakes into the stored values.
    scale: Vec<f64>,
    /// Reusable buffer for the row-scaled input of the left product, so
    /// warm multigrid cycles allocate nothing. `try_lock` keeps
    /// concurrent callers correct: a contended call falls back to a
    /// fresh temporary instead of blocking.
    scaled: Mutex<Vec<f64>>,
}

impl std::fmt::Debug for ImplicitStochastic<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImplicitStochastic")
            .field("n", &self.scale.len())
            .field("nnz", &self.fwd.nnz())
            .finish_non_exhaustive()
    }
}

impl<'a> ImplicitStochastic<'a> {
    /// Validates the operator as a transition matrix and computes the
    /// row-renormalization factors, mirroring
    /// [`StochasticMatrix::with_tolerance`](crate::StochasticMatrix::with_tolerance):
    /// entries must be finite probabilities in `[0, 1 + tol]` and every
    /// row sum must be within `tol` of one.
    ///
    /// `tr` is the transpose of `fwd` (e.g. from
    /// [`TransitionOp::transpose_op`]). Only its shape is checked; no
    /// product reads it.
    ///
    /// # Errors
    ///
    /// Same conditions as `StochasticMatrix::with_tolerance`:
    /// [`MarkovError::NotSquare`], [`MarkovError::InvalidProbability`],
    /// [`MarkovError::RowSumNotOne`]. Also rejects a `tr` whose shape
    /// disagrees with `fwd`.
    pub fn with_tolerance(
        fwd: &'a dyn TransitionOp,
        tr: &dyn TransitionOp,
        tol: f64,
    ) -> Result<ImplicitStochastic<'a>> {
        let n = fwd.rows();
        if fwd.cols() != n {
            return Err(MarkovError::NotSquare {
                rows: fwd.rows(),
                cols: fwd.cols(),
            });
        }
        if tr.rows() != n || tr.cols() != n {
            return Err(MarkovError::InvalidArgument(
                "transposed operator shape disagrees with the forward operator".into(),
            ));
        }
        // Row sums, accumulated per row in ascending entry order (the
        // same fold `CsrMatrix::row_sums` runs); a NaN marks a row with
        // an invalid entry for the serial pass below.
        let mut scale = vec![0.0f64; n];
        par::for_each_chunk_mut(&mut scale, |r0, chunk| {
            for (k, out) in chunk.iter_mut().enumerate() {
                let mut s = 0.0f64;
                let mut ok = true;
                fwd.for_each_in_row(r0 + k, &mut |_, v| {
                    if !v.is_finite() || v < 0.0 || v > 1.0 + tol {
                        ok = false;
                    }
                    s += v;
                });
                *out = if ok { s } else { f64::NAN };
            }
        });
        for (r, s) in scale.iter_mut().enumerate() {
            if s.is_nan() {
                // Re-scan serially to recover the offending entry.
                let mut bad = None;
                fwd.for_each_in_row(r, &mut |c, v| {
                    if bad.is_none() && (!v.is_finite() || v < 0.0 || v > 1.0 + tol) {
                        bad = Some((c, v));
                    }
                });
                let (col, value) = bad.expect("NaN row sum implies an invalid entry");
                return Err(MarkovError::InvalidProbability { row: r, col, value });
            }
            if (*s - 1.0).abs() > tol {
                return Err(MarkovError::RowSumNotOne { row: r, sum: *s });
            }
            *s = 1.0 / *s;
        }
        Ok(ImplicitStochastic {
            fwd,
            scale,
            scaled: Mutex::new(Vec::new()),
        })
    }

    /// Number of states.
    pub fn n(&self) -> usize {
        self.scale.len()
    }

    /// Stored entries of the forward operator (compact size for
    /// product-form backends).
    pub fn nnz(&self) -> usize {
        self.fwd.nnz()
    }

    /// One step of the chain: writes `x P = (scale ⊙ x) · A` into `out`,
    /// through the wrapped operator's left product.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `n()`.
    pub fn step_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n(), "vector length must match state count");
        assert_eq!(out.len(), self.n(), "output length must match state count");
        let t0 = (obs::enabled() && x.len() >= 512).then(std::time::Instant::now);
        match self.scaled.try_lock() {
            Ok(mut ws) => self.scaled_step(x, out, &mut ws),
            Err(_) => self.scaled_step(x, out, &mut Vec::new()),
        }
        if let Some(t0) = t0 {
            obs::histogram("markov.spmv.ns", t0.elapsed().as_nanos() as f64);
        }
    }

    fn scaled_step(&self, x: &[f64], out: &mut [f64], ws: &mut Vec<f64>) {
        ws.clear();
        ws.extend(x.iter().zip(&self.scale).map(|(v, s)| v * s));
        self.fwd.mul_left_into(ws, out);
    }
}

impl TransitionOp for ImplicitStochastic<'_> {
    fn rows(&self) -> usize {
        self.n()
    }

    fn cols(&self) -> usize {
        self.n()
    }

    fn nnz(&self) -> usize {
        ImplicitStochastic::nnz(self)
    }

    fn apply_cost(&self) -> usize {
        // The wrapped operator's real apply work plus the per-row
        // renormalization scaling.
        self.fwd.apply_cost() + self.n()
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        self.step_into(x, y);
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        self.fwd.mul_right_into(x, y);
        for (v, s) in y.iter_mut().zip(&self.scale) {
            *v *= s;
        }
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        let si = self.scale[row];
        self.fwd.for_each_in_row(row, &mut |j, v| f(j, v * si));
    }

    fn diagonal_into(&self, out: &mut [f64]) {
        self.fwd.diagonal_into(out);
        let scale = &self.scale;
        par::for_each_chunk_mut(out, |i0, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o *= scale[i0 + k];
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StochasticMatrix;
    use stochcdr_linalg::{CooMatrix, CsrMatrix};

    /// Deterministic pseudo-random raw (CSR) transition matrix whose rows
    /// sum to one only approximately — exercising the renormalization.
    fn raw_chain(n: usize, seed: u64) -> CsrMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let deg = 2 + (i % 4);
            let mut row: Vec<f64> = (0..deg).map(|_| next() + 1e-3).collect();
            let s: f64 = row.iter().sum();
            for v in &mut row {
                // Leave a small deliberate row-sum error inside the 1e-6
                // tolerance used below.
                *v *= (1.0 + 3e-7) / s;
            }
            for (k, v) in row.into_iter().enumerate() {
                coo.push(i, (i * 5 + k * 11 + 1) % n, v);
            }
        }
        coo.to_csr()
    }

    /// `|a - b| ≤ 1e-12 · max|b|` elementwise.
    fn assert_close(a: &[f64], b: &[f64], what: &str) {
        let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-12 * scale, "{what} [{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn products_match_the_materialized_chain() {
        let raw = raw_chain(48, 3);
        let chain = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let x: Vec<f64> = (0..48).map(|i| ((i * 29 + 3) % 31) as f64 / 31.0).collect();
        let mut a = vec![0.0; 48];
        let mut b = vec![0.0; 48];
        // Products fold the renormalization into a diagonal scale, so
        // they agree with the stored `raw · scale` values to rounding.
        chain.step_into(&x, &mut a);
        imp.step_into(&x, &mut b);
        assert_close(&b, &a, "step");
        TransitionOp::mul_right_into(&chain, &x, &mut a);
        imp.mul_right_into(&x, &mut b);
        assert_close(&b, &a, "right product");
        // The diagonal and row traversal serve the stored values bitwise.
        chain.diagonal_into(&mut a);
        imp.diagonal_into(&mut b);
        assert_eq!(a, b, "diagonal diverges");
        for r in 0..48 {
            let mut got: Vec<(usize, f64)> = Vec::new();
            imp.for_each_in_row(r, &mut |c, v| got.push((c, v)));
            let want: Vec<(usize, f64)> = chain.matrix().row(r).collect();
            assert_eq!(got, want, "row {r}");
        }
    }

    #[test]
    fn validation_mirrors_the_materialized_errors() {
        // Row sum far from one.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.4);
        coo.push(1, 1, 1.0);
        let m = coo.to_csr();
        let t = m.transpose();
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&m, &t, 1e-9),
            Err(MarkovError::RowSumNotOne { row: 0, .. })
        ));
        // Negative entry.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.5);
        coo.push(0, 1, -0.5);
        coo.push(1, 1, 1.0);
        let m = coo.to_csr();
        let t = m.transpose();
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&m, &t, 1e-9),
            Err(MarkovError::InvalidProbability { row: 0, .. })
        ));
        // Non-square.
        let coo = CooMatrix::new(2, 3);
        let m = coo.to_csr();
        let t = m.transpose();
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&m, &t, 1e-9),
            Err(MarkovError::NotSquare { .. })
        ));
    }
}
