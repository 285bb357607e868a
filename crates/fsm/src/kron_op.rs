//! Matrix-free Kronecker-product operator.
//!
//! For *independent* components with transition matrices `A_1 … A_k`, the
//! joint TPM is `A_1 ⊗ … ⊗ A_k`. Materializing it costs `Π nnz(A_i)`
//! storage; applying it as a sequence of per-mode products costs only
//! `Σ_i nnz(A_i) · (states / n_i)` work and no extra storage. This is the
//! representation the paper points to for "solving more complex models"
//! ("hierarchical generalized Kronecker-algebra" — Plateau, Buchholz).
//!
//! [`KroneckerOp`] implements [`TransitionOp`], so every
//! `StationarySolver` that stays matrix-free in the products (power
//! iteration, weighted Jacobi) runs on it directly — no TPM is ever
//! formed. Row access and the diagonal are served from the factors, so
//! even Jacobi's diagonal extraction stays compact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use stochcdr_linalg::{kron, par, CsrMatrix, TransitionOp};
use stochcdr_obs as obs;

/// A lazily-applied Kronecker product of square sparse factors.
///
/// # Example
///
/// ```
/// use stochcdr_fsm::KroneckerOp;
/// use stochcdr_linalg::{CooMatrix, CsrMatrix};
///
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 1, 1.0);
/// a.push(1, 0, 1.0);
/// let toggle = a.to_csr();
/// let op = KroneckerOp::new(vec![toggle.clone(), CsrMatrix::identity(3)]);
/// assert_eq!(op.dim(), 6);
/// let y = op.mul_left(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// assert_eq!(y[3], 1.0); // (0,0) -> (1,0)
/// ```
#[derive(Debug)]
pub struct KroneckerOp {
    factors: Vec<CsrMatrix>,
    dim: usize,
    /// `tail[l]` = product of the dimensions of factors after `l`, so the
    /// level-`l` digit of row `r` is `(r / tail[l]) % n_l` — row
    /// enumeration decomposes indices without a per-call digit buffer.
    tail: Vec<usize>,
    /// Transposed-factor twin, built on first use ((A⊗B)ᵀ = Aᵀ⊗Bᵀ).
    transposed: OnceLock<Box<KroneckerOp>>,
    /// Whether this op already emitted a `mem.budget_exceeded` event —
    /// sweep loops retry [`try_materialize`](Self::try_materialize) per
    /// axis point and must not bloat JSONL artifacts with repeats.
    budget_reported: AtomicBool,
    /// Reusable ping-pong buffers for the mode-by-mode apply, so warm
    /// multigrid cycles against the implicit fine grid allocate nothing.
    /// `try_lock` keeps concurrent callers correct: a contended call
    /// falls back to fresh temporaries instead of blocking.
    scratch: Mutex<ApplyScratch>,
}

/// The two `dim`-length work vectors [`KroneckerOp::mul_left_into`] and
/// [`KroneckerOp::mul_right_into`] ping-pong between mode applications.
#[derive(Debug, Default)]
struct ApplyScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl Clone for KroneckerOp {
    /// Clones factors only; the transpose cache and the budget-report
    /// latch start fresh on the copy.
    fn clone(&self) -> Self {
        KroneckerOp::new(self.factors.clone())
    }
}

impl PartialEq for KroneckerOp {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.factors == other.factors
    }
}

impl KroneckerOp {
    /// Creates the operator `factors[0] ⊗ factors[1] ⊗ …`.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty or any factor is not square.
    pub fn new(factors: Vec<CsrMatrix>) -> Self {
        assert!(!factors.is_empty(), "need at least one factor");
        let mut dim = 1usize;
        for f in &factors {
            assert_eq!(f.rows(), f.cols(), "factors must be square");
            dim = dim
                .checked_mul(f.rows())
                .expect("joint dimension overflows usize");
        }
        let mut tail = vec![1usize; factors.len()];
        for i in (0..factors.len() - 1).rev() {
            tail[i] = tail[i + 1] * factors[i + 1].rows();
        }
        KroneckerOp {
            factors,
            dim,
            tail,
            transposed: OnceLock::new(),
            budget_reported: AtomicBool::new(false),
            scratch: Mutex::new(ApplyScratch::default()),
        }
    }

    /// The shared mode-by-mode apply loop behind both product directions,
    /// with caller-owned ping-pong buffers (grown on first use, reused
    /// thereafter). The arithmetic is identical whichever buffers arrive,
    /// so scratch reuse never changes a bit of the output.
    fn apply_modes(
        &self,
        mode: fn(&CsrMatrix, usize, &[f64], &mut [f64]),
        x: &[f64],
        y: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        ws.cur.clear();
        ws.cur.extend_from_slice(x);
        ws.next.clear();
        ws.next.resize(self.dim, 0.0);
        let mut inner = self.dim;
        for f in &self.factors {
            inner /= f.rows();
            mode(f, inner, &ws.cur, &mut ws.next);
            std::mem::swap(&mut ws.cur, &mut ws.next);
        }
        y.copy_from_slice(&ws.cur);
    }

    /// Runs `apply_modes` against the op's own scratch when it is free,
    /// or fresh temporaries when another thread holds it.
    fn apply_with_scratch(
        &self,
        mode: fn(&CsrMatrix, usize, &[f64], &mut [f64]),
        x: &[f64],
        y: &mut [f64],
    ) {
        match self.scratch.try_lock() {
            Ok(mut ws) => self.apply_modes(mode, x, y, &mut ws),
            Err(_) => self.apply_modes(mode, x, y, &mut ApplyScratch::default()),
        }
    }

    /// The transposed operator `A_1ᵀ ⊗ … ⊗ A_kᵀ`, built from per-factor
    /// [`CsrMatrix::transpose`] on first use and cached for the lifetime
    /// of this op. Because the CSR transpose is a pure permutation of the
    /// stored values and `(A ⊗ B)ᵀ = Aᵀ ⊗ Bᵀ`, every row of the returned
    /// op multiplies exactly the same scalars in the same order as a
    /// materialize-then-transpose would — bit-identical, at compact cost.
    pub fn transposed(&self) -> &KroneckerOp {
        self.transposed.get_or_init(|| {
            Box::new(KroneckerOp::new(
                self.factors.iter().map(CsrMatrix::transpose).collect(),
            ))
        })
    }

    /// Joint dimension (product of factor dimensions).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The factors, outermost (slowest-varying) first.
    pub fn factors(&self) -> &[CsrMatrix] {
        &self.factors
    }

    /// Total stored entries across factors (the compact representation
    /// size; compare with `nnz` of [`materialize`](Self::materialize)).
    pub fn compact_nnz(&self) -> usize {
        self.factors.iter().map(CsrMatrix::nnz).sum()
    }

    /// Returns a copy of this operator with factor `idx` swapped for
    /// `factor`, sharing nothing else — the cheap way for a parameter
    /// sweep to perturb one component while every other factor (and the
    /// joint dimension) is reused.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, `factor` is not square, or its
    /// dimension differs from the factor it replaces (the joint space
    /// must not change shape under a sweep).
    pub fn with_factor(&self, idx: usize, factor: CsrMatrix) -> Self {
        assert!(idx < self.factors.len(), "factor index out of range");
        assert_eq!(factor.rows(), factor.cols(), "factors must be square");
        assert_eq!(
            factor.rows(),
            self.factors[idx].rows(),
            "replacement factor must keep the mode dimension"
        );
        let mut factors = self.factors.clone();
        factors[idx] = factor;
        KroneckerOp::new(factors)
    }

    /// Computes `y = x (A_1 ⊗ … ⊗ A_k)` without materializing the product.
    ///
    /// Works mode by mode: viewing `x` as a `k`-dimensional tensor, applies
    /// each factor along its own mode. Each mode application parallelizes
    /// over the outer tensor blocks (the scatter of a factor row stays
    /// inside its own block), with chunk boundaries aligned to blocks so
    /// every output element is accumulated by exactly one worker in serial
    /// order — results are bit-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mul_left(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0f64; self.dim];
        TransitionOp::mul_left_into(self, x, &mut y);
        y
    }

    /// Exact nonzero count of the materialized product, `Π nnz(A_i)`
    /// (saturating — a saturated value is far past any budget anyway).
    pub fn materialized_nnz(&self) -> usize {
        self.factors
            .iter()
            .fold(1usize, |acc, f| acc.saturating_mul(f.nnz()))
    }

    /// Estimated heap cost of [`materialize`](Self::materialize) in
    /// bytes: CSR stores one `f64` value and one `usize` column index per
    /// nonzero plus a `dim + 1` row-pointer array.
    pub fn materialize_cost_bytes(&self) -> u64 {
        let per_nnz = (size_of::<f64>() + size_of::<usize>()) as u64;
        let nnz = self.materialized_nnz() as u64;
        nnz.saturating_mul(per_nnz)
            .saturating_add(((self.dim as u64) + 1) * size_of::<usize>() as u64)
    }

    /// Budget-aware [`materialize`](Self::materialize): refuses (returns
    /// `None`) when the estimated product size would push the live heap
    /// past the soft memory budget ([`stochcdr_obs::mem::set_budget`],
    /// `--mem-budget` on the CLI). The first refusal emits a
    /// `mem.budget_exceeded` event; repeat refusals on the same op (sweep
    /// loops retry per axis point) stay silent so artifacts record one
    /// line per op, not one per retry. With no budget set this always
    /// materializes.
    pub fn try_materialize(&self) -> Option<CsrMatrix> {
        let bytes = self.materialize_cost_bytes();
        if self.budget_reported.load(Ordering::Relaxed) {
            // Already reported for this op: check silently.
            if obs::mem::would_exceed(bytes) {
                return None;
            }
        } else if !obs::mem::check_budget("fsm.kron_materialize", bytes) {
            self.budget_reported.store(true, Ordering::Relaxed);
            return None;
        }
        Some(self.materialize())
    }

    /// Materializes the full Kronecker product (for tests and small
    /// systems).
    pub fn materialize(&self) -> CsrMatrix {
        let _span = obs::span("fsm.kron_materialize");
        let m = kron::kron_all(self.factors.iter());
        obs::event(
            "fsm.kron_materialized",
            &[
                ("factors", self.factors.len().into()),
                ("dim", self.dim.into()),
                ("compact_nnz", self.compact_nnz().into()),
                ("nnz", m.nnz().into()),
            ],
        );
        m
    }
}

/// One left-product mode application: `next[(o,·,r)] = cur[(o,·,r)] · f`
/// for every outer index `o` and trailing index `r < inner`.
///
/// Parallel over blocks of `n · inner` elements (one block per outer
/// index); the scatter of each factor row lands inside its own block, so
/// the block partition makes every output element single-writer while
/// preserving the serial accumulation order exactly. Every block performs
/// the identical factor traversal, so the even, block-aligned split is
/// already perfectly balanced — the nnz-weighted `RowPartition` the CSR
/// kernels use would add bookkeeping without moving any work. Dispatches
/// go to the persistent `linalg::par` pool, so a mode product costs a
/// park/unpark hand-off, not a thread spawn.
fn apply_mode_left(f: &CsrMatrix, inner: usize, cur: &[f64], next: &mut [f64]) {
    let n = f.rows();
    let block = n * inner;
    par::for_each_chunk_aligned_mut(next, block, |start, chunk| {
        for (b, out) in chunk.chunks_mut(block).enumerate() {
            let base = start + b * block;
            out.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..n {
                let row_base = base + i * inner;
                for (j, a) in f.row(i) {
                    let dst = j * inner;
                    for r in 0..inner {
                        let v = cur[row_base + r];
                        if v != 0.0 {
                            out[dst + r] += v * a;
                        }
                    }
                }
            }
        }
    });
}

/// One right-product mode application: `next[(o,i,r)] = Σ_j f_ij cur[(o,j,r)]`.
///
/// Pure gather per output block — same block-aligned parallel partition as
/// [`apply_mode_left`].
fn apply_mode_right(f: &CsrMatrix, inner: usize, cur: &[f64], next: &mut [f64]) {
    let n = f.rows();
    let block = n * inner;
    par::for_each_chunk_aligned_mut(next, block, |start, chunk| {
        for (b, out) in chunk.chunks_mut(block).enumerate() {
            let base = start + b * block;
            out.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..n {
                let dst = i * inner;
                for (j, a) in f.row(i) {
                    let src = base + j * inner;
                    for r in 0..inner {
                        let v = cur[src + r];
                        if v != 0.0 {
                            out[dst + r] += a * v;
                        }
                    }
                }
            }
        }
    });
}

/// Enumerates the row entries of the Kronecker product in ascending column
/// order: lexicographic recursion over factor-row entries, outermost
/// factor slowest-varying. The level-`l` row digit is recovered from
/// `row` and the precomputed trailing strides, so the walk is
/// allocation-free (warm implicit multigrid cycles refresh level 0
/// through here).
fn row_product(
    factors: &[CsrMatrix],
    tail: &[usize],
    row: usize,
    level: usize,
    col: usize,
    val: f64,
    f: &mut dyn FnMut(usize, f64),
) {
    if level == factors.len() {
        f(col, val);
        return;
    }
    let fac = &factors[level];
    let digit = (row / tail[level]) % fac.rows();
    for (j, a) in fac.row(digit) {
        if a != 0.0 {
            row_product(
                factors,
                tail,
                row,
                level + 1,
                col * fac.cols() + j,
                val * a,
                f,
            );
        }
    }
}

impl TransitionOp for KroneckerOp {
    fn rows(&self) -> usize {
        self.dim
    }

    fn cols(&self) -> usize {
        self.dim
    }

    /// The compact representation size `Σ nnz(A_i)`, not the nnz of the
    /// materialized product.
    fn nnz(&self) -> usize {
        self.compact_nnz()
    }

    /// The mode-by-mode apply touches factor `k` once per fiber — `dim /
    /// n_k` independent length-`n_k` products of `nnz_k` multiply-adds
    /// each — so the real work is `Σ_k (dim / n_k) · nnz_k`, far above
    /// the compact `Σ_k nnz_k` that [`nnz`](TransitionOp::nnz) reports.
    fn apply_cost(&self) -> usize {
        self.factors
            .iter()
            .map(|f| (self.dim / f.rows()) * f.nnz())
            .sum()
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.dim,
            "vector length must match joint dimension"
        );
        assert_eq!(
            y.len(),
            self.dim,
            "output length must match joint dimension"
        );
        let _span = obs::enabled().then(|| obs::span("kron.apply"));
        self.apply_with_scratch(apply_mode_left, x, y);
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.dim,
            "vector length must match joint dimension"
        );
        assert_eq!(
            y.len(),
            self.dim,
            "output length must match joint dimension"
        );
        let _span = obs::enabled().then(|| obs::span("kron.apply"));
        self.apply_with_scratch(apply_mode_right, x, y);
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        assert!(row < self.dim, "row {row} out of range");
        row_product(&self.factors, &self.tail, row, 0, 0, 1.0, f);
    }

    /// Diagonal of the product written straight into `out`: successive
    /// outer products of the factor diagonals, expanded in place from the
    /// back of the buffer — `O(dim)` output, no allocation, never touches
    /// off-diagonal entries. (The write index `i·m + j` is always ≥ the
    /// read index `i`, so sources survive until consumed.) Factor
    /// diagonal entries are read with [`CsrMatrix::get`], the lookup
    /// `CsrMatrix::diagonal` itself uses.
    fn diagonal_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "diagonal buffer length must match");
        out[0] = 1.0;
        let mut len = 1usize;
        for f in &self.factors {
            let m = f.rows();
            for i in (0..len).rev() {
                let a = out[i];
                for j in (0..m).rev() {
                    out[i * m + j] = a * f.get(j, j);
                }
            }
            len *= m;
        }
    }

    /// The cached transposed-factor twin (see
    /// [`KroneckerOp::transposed`]) — lets transpose-based smoothers run
    /// on the implicit path without materializing anything.
    fn transpose_op(&self) -> Option<&dyn TransitionOp> {
        Some(self.transposed())
    }

    fn materialize_csr(&self) -> CsrMatrix {
        self.materialize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochcdr_linalg::CooMatrix;

    fn stochastic2(a: f64) -> CsrMatrix {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0 - a);
        coo.push(0, 1, a);
        coo.push(1, 0, a);
        coo.push(1, 1, 1.0 - a);
        coo.to_csr()
    }

    fn stochastic3() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 0.5);
        coo.push(1, 0, 0.5);
        coo.push(2, 2, 1.0);
        coo.to_csr()
    }

    #[test]
    fn with_factor_swaps_one_mode() {
        let op = KroneckerOp::new(vec![stochastic2(0.3), stochastic3(), stochastic2(0.1)]);
        let swapped = op.with_factor(2, stochastic2(0.4));
        let direct = KroneckerOp::new(vec![stochastic2(0.3), stochastic3(), stochastic2(0.4)]);
        assert_eq!(swapped.dim(), op.dim());
        let x: Vec<f64> = (0..12).map(|i| ((i * 31 + 5) % 13) as f64 / 13.0).collect();
        assert_eq!(swapped.mul_left(&x), direct.mul_left(&x));
        // Untouched factors are reused verbatim.
        assert_eq!(swapped.factors()[0].nnz(), op.factors()[0].nnz());
    }

    #[test]
    #[should_panic(expected = "mode dimension")]
    fn with_factor_rejects_dimension_change() {
        let op = KroneckerOp::new(vec![stochastic2(0.3), stochastic3()]);
        let _ = op.with_factor(0, stochastic3());
    }

    #[test]
    fn matches_materialized_product() {
        let op = KroneckerOp::new(vec![stochastic2(0.3), stochastic3(), stochastic2(0.1)]);
        let dense = op.materialize();
        assert_eq!(op.dim(), 12);
        // Compare on a deterministic pseudo-random vector.
        let x: Vec<f64> = (0..12)
            .map(|i| ((i * 37 + 11) % 17) as f64 / 17.0)
            .collect();
        let y1 = op.mul_left(&x);
        let y2 = dense.mul_left(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn right_product_matches_materialized() {
        let op = KroneckerOp::new(vec![stochastic2(0.3), stochastic3(), stochastic2(0.1)]);
        let m = op.materialize();
        let x: Vec<f64> = (0..12).map(|i| ((i * 53 + 7) % 19) as f64 / 19.0).collect();
        let y1 = op.mul_right(&x);
        let y2 = m.mul_right(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn row_access_matches_materialized() {
        let op = KroneckerOp::new(vec![stochastic2(0.25), stochastic3()]);
        let m = op.materialize();
        for row in 0..op.dim() {
            let mut got: Vec<(usize, f64)> = Vec::new();
            op.for_each_in_row(row, &mut |c, v| got.push((c, v)));
            let want: Vec<(usize, f64)> = m.row(row).collect();
            assert_eq!(got.len(), want.len(), "row {row}");
            for ((gc, gv), (wc, wv)) in got.iter().zip(&want) {
                assert_eq!(gc, wc, "row {row}");
                assert!((gv - wv).abs() < 1e-15, "row {row}");
            }
            // Ascending column order is part of the TransitionOp contract.
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "row {row} unsorted"
            );
        }
    }

    #[test]
    fn diagonal_matches_materialized() {
        let op = KroneckerOp::new(vec![stochastic2(0.25), stochastic3(), stochastic2(0.4)]);
        assert_eq!(TransitionOp::diagonal(&op), op.materialize().diagonal());
    }

    #[test]
    fn diagonal_into_is_bitwise_in_place() {
        let op = KroneckerOp::new(vec![stochastic2(0.25), stochastic3(), stochastic2(0.4)]);
        let mut buf = vec![f64::NAN; op.dim()];
        op.diagonal_into(&mut buf);
        let want = op.materialize().diagonal();
        assert_eq!(buf.len(), want.len());
        for (a, b) in buf.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn transposed_twin_is_bitwise_the_transpose() {
        let op = KroneckerOp::new(vec![stochastic2(0.3), stochastic3(), stochastic2(0.1)]);
        let tr = op.transposed();
        let want = op.materialize().transpose();
        for row in 0..op.dim() {
            let mut got: Vec<(usize, f64)> = Vec::new();
            tr.for_each_in_row(row, &mut |c, v| got.push((c, v)));
            let want_row: Vec<(usize, f64)> = want.row(row).collect();
            assert_eq!(got.len(), want_row.len(), "row {row}");
            for ((gc, gv), (wc, wv)) in got.iter().zip(&want_row) {
                assert_eq!(gc, wc, "row {row}");
                assert_eq!(gv.to_bits(), wv.to_bits(), "row {row}");
            }
        }
        // Cached: the same allocation is returned on repeat calls, and
        // the TransitionOp hook serves it.
        assert!(std::ptr::eq(tr, op.transposed()));
        assert!(TransitionOp::transpose_op(&op).is_some());
    }

    #[test]
    fn single_factor_is_plain_product() {
        let m = stochastic3();
        let op = KroneckerOp::new(vec![m.clone()]);
        let x = [0.2, 0.3, 0.5];
        assert_eq!(op.mul_left(&x), m.mul_left(&x));
    }

    #[test]
    fn compact_representation_is_smaller() {
        let op = KroneckerOp::new(vec![stochastic2(0.3); 10]);
        assert_eq!(op.dim(), 1024);
        assert_eq!(op.compact_nnz(), 40);
        assert_eq!(op.materialize().nnz(), 4usize.pow(10));
    }

    #[test]
    fn stochasticity_preserved() {
        let op = KroneckerOp::new(vec![stochastic2(0.25), stochastic3()]);
        let x = vec![1.0 / 6.0; 6];
        let y = op.mul_left(&x);
        let total: f64 = y.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(y.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn try_materialize_honors_the_soft_budget() {
        use stochcdr_obs::mem;
        let op = KroneckerOp::new(vec![stochastic2(0.3); 10]);
        assert_eq!(op.materialized_nnz(), 4usize.pow(10));
        assert!(op.materialize_cost_bytes() > 4u64.pow(10) * 16);

        // ~16 MiB estimated; a 1 MiB budget must refuse it, no budget
        // (or a generous one) must not.
        mem::set_budget(Some(1 << 20));
        assert!(op.try_materialize().is_none(), "oversized product built");
        mem::set_budget(None);
        let m = op.try_materialize().expect("no budget, must materialize");
        assert_eq!(m.nnz(), op.materialized_nnz());
    }

    /// Runs `body` in a child copy of this test binary with only the test
    /// `name` selected, so nothing else in the process can reach the
    /// process-wide obs sink it reads.
    fn run_alone(name: &str, body: fn()) {
        const SELECTED: &str = "STOCHCDR_TEST_ALONE";
        if std::env::var(SELECTED).as_deref() == Ok(name) {
            return body();
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([name, "--exact", "--test-threads=1", "--nocapture"])
            .env(SELECTED, name)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{name} failed when run alone:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    /// Budget refusals from any thread land in the process-wide obs sink,
    /// so the event count runs alone in a child process.
    #[test]
    fn budget_refusal_reports_once_per_op() {
        run_alone("kron_op::tests::budget_refusal_reports_once_per_op", || {
            use stochcdr_obs as obs;
            use stochcdr_obs::mem;
            let (sink, buf) = obs::JsonLinesSink::to_shared_buffer();
            obs::install(Box::new(sink));
            mem::set_budget(Some(1 << 20));
            let op = KroneckerOp::new(vec![stochastic2(0.3); 10]);
            // A sweep loop retries per axis point; only the first refusal
            // may emit the event.
            for _ in 0..5 {
                assert!(op.try_materialize().is_none());
            }
            // A fresh clone is a fresh op: it reports once more.
            let clone = op.clone();
            assert!(clone.try_materialize().is_none());
            obs::uninstall();
            let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            let hits = text
                .lines()
                .filter(|l| l.contains("mem.budget_exceeded"))
                .count();
            assert_eq!(hits, 2, "one event per op, got:\n{text}");
        });
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_factor_rejected() {
        let coo = CooMatrix::new(2, 3);
        let _ = KroneckerOp::new(vec![coo.to_csr()]);
    }
}
