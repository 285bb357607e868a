//! Compressed sparse row matrix — the workhorse storage format.

use std::sync::OnceLock;

use crate::par::{RowPartition, PARALLEL_NNZ_CUTOFF};
use crate::{CooMatrix, DenseMatrix, LinalgError, Result};

/// An immutable sparse matrix in compressed sparse row (CSR) format.
///
/// Column indices within each row are sorted and unique. `CsrMatrix` is the
/// storage used for transition probability matrices throughout the
/// workspace; the hot kernels are [`mul_left`](Self::mul_left) (`y = x A`,
/// the stationary-distribution iteration) and
/// [`mul_right`](Self::mul_right) (`y = A x`, first-passage solves).
///
/// # Example
///
/// ```
/// use stochcdr_linalg::{CooMatrix, CsrMatrix};
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(1, 0, 0.5);
/// coo.push(1, 1, 0.5);
/// let a: CsrMatrix = coo.to_csr();
/// assert_eq!(a.mul_right(&[2.0, 4.0]), vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
    /// Memoized nnz-balanced row blocking for the parallel kernels. Built
    /// on first use; a pure function of `indptr`, so it survives numeric
    /// refreshes through [`data_mut`](Self::data_mut) untouched.
    part: OnceLock<RowPartition>,
}

/// Equality is structural (shape, pattern, values); whether the cached
/// row partition has been built yet is a memoization detail.
impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.data == other.data
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw components.
    ///
    /// This is the cheap, trusted constructor used by [`CooMatrix::to_csr`];
    /// invariants are checked with debug assertions only.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the structure is inconsistent.
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indices.len(), data.len());
        debug_assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        debug_assert!(indices.iter().all(|&c| (c as usize) < cols || cols == 0));
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
            part: OnceLock::new(),
        }
    }

    /// Builds a CSR matrix from pre-assembled row data, validating the
    /// structural invariants.
    ///
    /// This is the public entry point for assemblers that build rows
    /// directly (e.g. the parallel TPM row assembly in `stochcdr-fsm`)
    /// and so skip the COO round trip. Within each row, column indices
    /// must be strictly ascending (sorted and duplicate-free) and in
    /// bounds.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the component lengths are
    /// inconsistent, an index is out of bounds, or a row's indices are not
    /// strictly ascending.
    pub fn from_sorted_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1
            || indices.len() != data.len()
            || indptr.first() != Some(&0)
            || *indptr.last().unwrap_or(&0) != indices.len()
        {
            return Err(LinalgError::ShapeMismatch(format!(
                "csr parts inconsistent: {rows} rows, indptr len {}, {} indices, {} values",
                indptr.len(),
                indices.len(),
                data.len()
            )));
        }
        for r in 0..rows {
            let (lo, hi) = (indptr[r], indptr[r + 1]);
            if lo > hi || hi > indices.len() {
                return Err(LinalgError::ShapeMismatch(format!(
                    "row {r} has invalid extent {lo}..{hi}"
                )));
            }
            let row = &indices[lo..hi];
            if row.iter().any(|&c| c as usize >= cols) {
                return Err(LinalgError::ShapeMismatch(format!(
                    "row {r} has a column index out of bounds (cols = {cols})"
                )));
            }
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(LinalgError::ShapeMismatch(format!(
                    "row {r} columns are not strictly ascending"
                )));
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
            part: OnceLock::new(),
        })
    }

    /// Builds an empty `rows x cols` matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            data: Vec::new(),
            part: OnceLock::new(),
        }
    }

    /// Builds the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            data: vec![1.0; n],
            part: OnceLock::new(),
        }
    }

    /// Builds a square matrix with the given diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n);
        indptr.push(0);
        for (i, &d) in diag.iter().enumerate() {
            if d != 0.0 {
                indices.push(i as u32);
                data.push(d);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            data,
            part: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row pointer array (length `rows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array (length `nnz`).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array (length `nnz`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the value array (length `nnz`).
    ///
    /// The sparsity structure (`indptr`, `indices`) stays immutable; this
    /// exists for numeric-refresh paths (e.g. the multigrid setup/numeric
    /// split) that overwrite values in a fixed pattern without
    /// reallocating.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the value at `(row, col)`, or `0.0` if not stored.
    ///
    /// Binary-searches the row; O(log nnz(row)).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let (lo, hi) = (self.indptr[row], self.indptr[row + 1]);
        match self.indices[lo..hi].binary_search(&(col as u32)) {
            Ok(k) => self.data[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(col, value)` pairs of one row, in column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row(&self, row: usize) -> RowIter<'_> {
        assert!(
            row < self.rows,
            "row {row} out of bounds for {} rows",
            self.rows
        );
        let (lo, hi) = (self.indptr[row], self.indptr[row + 1]);
        RowIter {
            indices: &self.indices[lo..hi],
            data: &self.data[lo..hi],
            pos: 0,
        }
    }

    /// Number of stored entries in one row.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.indptr[row + 1] - self.indptr[row]
    }

    /// Iterates over all stored triplets `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Computes `y = x A` where `x` is a row vector of length `rows`.
    ///
    /// This is the kernel of every stationary-distribution iteration
    /// (`eta_{k+1} = eta_k P`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn mul_left(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.mul_left_into(x, &mut y);
        y
    }

    /// In-place variant of [`mul_left`](Self::mul_left); `y` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "x length must equal row count");
        assert_eq!(y.len(), self.cols, "y length must equal column count");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            for k in lo..hi {
                y[self.indices[k] as usize] += xr * self.data[k];
            }
        }
    }

    /// Computes `y = A x` where `x` is a column vector of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_right(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_right_into(x, &mut y);
        y
    }

    /// The memoized nnz-balanced [`RowPartition`] of this matrix.
    ///
    /// Built on first call from the index pointer (one binary search per
    /// ~32k-nnz block) and cached for the lifetime of the matrix; the
    /// pattern is immutable, so the blocking never goes stale — numeric
    /// refreshes through [`data_mut`](Self::data_mut) reuse it as-is.
    /// Because caches like the sweep engine's `FactorCache` share
    /// operators behind `Arc`s, one partition serves every sweep point
    /// that reuses the operator.
    pub fn row_partition(&self) -> &RowPartition {
        self.part
            .get_or_init(|| RowPartition::from_weight_prefix(&self.indptr))
    }

    /// In-place variant of [`mul_right`](Self::mul_right); `y` is overwritten.
    ///
    /// Large products fan out across the [`crate::par`] worker pool over
    /// the memoized [`row_partition`](Self::row_partition): fixed,
    /// nnz-balanced, L2-sized row blocks that workers steal from a shared
    /// cursor. Each `y[r]` is still accumulated by a single worker in
    /// ascending stored-entry order and the block fence never depends on
    /// the thread count, so the result is bit-identical for every thread
    /// count. Products under [`PARALLEL_NNZ_CUTOFF`] stored entries stay
    /// on a serial path and never build the partition.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x length must equal column count");
        assert_eq!(y.len(), self.rows, "y length must equal row count");
        if self.nnz() < PARALLEL_NNZ_CUTOFF {
            if !y.is_empty() {
                self.mul_right_range(0, x, y);
            }
            return;
        }
        crate::par::for_each_partition_mut(y, self.row_partition(), |start, chunk| {
            self.mul_right_range(start, x, chunk)
        });
    }

    /// Computes rows `start..start + y.len()` of `A x` into `y`.
    fn mul_right_range(&self, start: usize, x: &[f64], y: &mut [f64]) {
        for (i, yr) in y.iter_mut().enumerate() {
            let r = start + i;
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.data[k] * x[self.indices[k] as usize];
            }
            *yr = acc;
        }
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// O(nnz + rows + cols); the result has sorted, unique column indices.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k] as usize;
                let slot = next[c];
                indices[slot] = r as u32;
                data[slot] = self.data[k];
                next[c] += 1;
            }
        }
        // Rows were visited in increasing order, so each transposed row is
        // already sorted by (former-row) column index.
        indptr.truncate(self.cols + 1);
        CsrMatrix::from_raw_parts(self.cols, self.rows, indptr, indices, data)
    }

    /// Converts to a dense matrix.
    ///
    /// Intended for small matrices (coarse-grid solves, tests).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Sparse matrix product `C = A B`.
    ///
    /// Classical Gustavson row-by-row algorithm with a dense accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        let mut data: Vec<f64> = Vec::new();
        let mut acc = vec![0.0f64; other.cols];
        let mut touched: Vec<u32> = Vec::new();
        for r in 0..self.rows {
            touched.clear();
            for (k, va) in self.row(r) {
                for (j, vb) in other.row(k) {
                    if acc[j] == 0.0 && !touched.contains(&(j as u32)) {
                        touched.push(j as u32);
                    }
                    acc[j] += va * vb;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                let v = acc[j as usize];
                if v != 0.0 {
                    indices.push(j);
                    data.push(v);
                }
                acc[j as usize] = 0.0;
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix::from_raw_parts(
            self.rows, other.cols, indptr, indices, data,
        ))
    }

    /// Returns the vector of row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.data[self.indptr[r]..self.indptr[r + 1]].iter().sum())
            .collect()
    }

    /// Returns the vector of column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (k, &c) in self.indices.iter().enumerate() {
            sums[c as usize] += self.data[k];
        }
        sums
    }

    /// Returns the main diagonal as a dense vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        let mut out = vec![0.0; n];
        self.diagonal_into(&mut out);
        out
    }

    /// Writes the main diagonal into a caller-provided buffer.
    ///
    /// Same values as [`diagonal`](Self::diagonal); repeated smoothing
    /// sweeps hoist the buffer out of their inner loop.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != min(rows, cols)`.
    pub fn diagonal_into(&self, out: &mut [f64]) {
        let n = self.rows.min(self.cols);
        assert_eq!(out.len(), n, "diagonal buffer length must match");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get(i, i);
        }
    }

    /// Returns a copy with every row scaled by the corresponding factor.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != rows`.
    pub fn scale_rows(&self, factors: &[f64]) -> CsrMatrix {
        assert_eq!(factors.len(), self.rows, "one factor per row required");
        let mut out = self.clone();
        for (r, &factor) in factors.iter().enumerate() {
            for k in out.indptr[r]..out.indptr[r + 1] {
                out.data[k] *= factor;
            }
        }
        out
    }

    /// Returns a copy with all entries of magnitude `<= tol` removed.
    pub fn prune(&self, tol: f64) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                if v.abs() > tol {
                    indices.push(c as u32);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(self.rows, self.cols, indptr, indices, data)
    }

    /// Computes `self + alpha * other` entrywise.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&self, alpha: f64, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "{}x{} + {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz() + other.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        for (r, c, v) in other.iter() {
            coo.push(r, c, alpha * v);
        }
        Ok(coo.to_csr())
    }

    /// Maximum absolute value of any stored entry (`0.0` if empty).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Converts back to a triplet builder (e.g. to edit entries).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }

    /// Extracts the square submatrix over `keep` rows/columns, in the order
    /// given.
    ///
    /// Used to form the `Q` block (transient-to-transient transitions) of an
    /// absorbing chain.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or any index is out of bounds.
    pub fn submatrix(&self, keep: &[usize]) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "submatrix extraction requires a square matrix"
        );
        let mut map = vec![u32::MAX; self.cols];
        for (new, &old) in keep.iter().enumerate() {
            assert!(old < self.rows, "index {old} out of bounds");
            map[old] = new as u32;
        }
        let mut indptr = Vec::with_capacity(keep.len() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        let mut rowbuf: Vec<(u32, f64)> = Vec::new();
        for &old in keep {
            rowbuf.clear();
            for (c, v) in self.row(old) {
                let nc = map[c];
                if nc != u32::MAX {
                    rowbuf.push((nc, v));
                }
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &rowbuf {
                indices.push(c);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(keep.len(), keep.len(), indptr, indices, data)
    }
}

/// Iterator over the stored `(col, value)` pairs of one CSR row.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    indices: &'a [u32],
    data: &'a [f64],
    pos: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.indices.len() {
            let item = (self.indices[self.pos] as usize, self.data[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.indices.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for RowIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 2 0]
        // [0 0 3]
        // [4 0 5]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        coo.to_csr()
    }

    #[test]
    fn get_returns_stored_and_zero() {
        let a = sample();
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn mul_left_matches_dense() {
        let a = sample();
        let y = a.mul_left(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![13.0, 2.0, 21.0]);
    }

    #[test]
    fn mul_right_matches_dense() {
        let a = sample();
        let y = a.mul_right(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![5.0, 9.0, 19.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_swaps_entries() {
        let a = sample().transpose();
        assert_eq!(a.get(1, 0), 2.0);
        assert_eq!(a.get(2, 1), 3.0);
        assert_eq!(a.get(0, 2), 4.0);
    }

    #[test]
    fn matmul_matches_dense() {
        let a = sample();
        let b = sample();
        let c = a.matmul(&b).unwrap();
        // dense check
        let ad = a.to_dense();
        let bd = b.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += ad[(i, k)] * bd[(k, j)];
                }
                assert!((c.get(i, j) - acc).abs() < 1e-12, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = sample();
        let b = CsrMatrix::zeros(2, 2);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn identity_is_neutral() {
        let a = sample();
        let i = CsrMatrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn row_and_col_sums() {
        let a = sample();
        assert_eq!(a.row_sums(), vec![3.0, 3.0, 9.0]);
        assert_eq!(a.col_sums(), vec![5.0, 2.0, 8.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![1.0, 0.0, 5.0]);
    }

    #[test]
    fn scale_rows_scales() {
        let a = sample().scale_rows(&[1.0, 2.0, 0.5]);
        assert_eq!(a.get(1, 2), 6.0);
        assert_eq!(a.get(2, 2), 2.5);
    }

    #[test]
    fn prune_removes_small_entries() {
        let a = sample().prune(2.5);
        assert_eq!(a.nnz(), 3); // 3.0, 4.0, 5.0 survive
        let a = sample().prune(3.5);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn add_scaled_combines() {
        let a = sample();
        let s = a.add_scaled(-1.0, &a).unwrap();
        assert_eq!(s.nnz(), 0);
        let d = a.add_scaled(1.0, &CsrMatrix::identity(3)).unwrap();
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 1.0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = sample();
        let s = a.submatrix(&[0, 2]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.get(0, 0), 1.0); // old (0,0)
        assert_eq!(s.get(1, 0), 4.0); // old (2,0)
        assert_eq!(s.get(1, 1), 5.0); // old (2,2)
        assert_eq!(s.get(0, 1), 0.0); // old (0,2) was zero
    }

    #[test]
    fn from_diagonal_constructs() {
        let d = CsrMatrix::from_diagonal(&[1.0, 0.0, 3.0]);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(d.get(2, 2), 3.0);
    }

    #[test]
    fn row_iter_is_exact_size() {
        let a = sample();
        let it = a.row(2);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn max_abs_works() {
        assert_eq!(sample().max_abs(), 5.0);
        assert_eq!(CsrMatrix::zeros(2, 2).max_abs(), 0.0);
    }

    #[test]
    fn mul_right_is_thread_count_invariant_on_skewed_rows() {
        // Heavily skewed nnz distribution (one dense row, many sparse
        // ones) pushed above the weighted parallel gate: the nnz-balanced
        // chunking must still produce the serial bits.
        let n = 2048;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            coo.push(0, j, 1.0 / (j as f64 + 1.0));
        }
        for i in 1..n {
            for k in 0..96 {
                coo.push(i, (i * 13 + k * 29) % n, (i * 8 + k) as f64 * 1e-4);
            }
        }
        let a = coo.to_csr();
        assert!(a.nnz() >= crate::par::PARALLEL_NNZ_CUTOFF);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        crate::par::set_threads(Some(1));
        let serial = a.mul_right(&x);
        for t in [2, 3, 4] {
            crate::par::set_threads(Some(t));
            let y = a.mul_right(&x);
            assert!(
                serial
                    .iter()
                    .zip(&y)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "thread count {t} changed bits"
            );
        }
    }
}
