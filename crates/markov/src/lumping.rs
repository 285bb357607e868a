//! Exact and weighted (weak) lumping of Markov chains.
//!
//! The paper builds its multigrid solver on lumpability: "we partition these
//! N states into n disjoint sets ... and form a new stochastic process by
//! defining new states corresponding to the n sets". The lumped process is
//! Markov for *any* initial distribution only if the partition is *exactly
//! (strongly) lumpable*; otherwise one obtains a useful approximation by
//! lumping with respect to a particular distribution — *weak lumping* — which
//! is precisely the aggregation step of aggregation/disaggregation methods.
//!
//! * [`Partition`] — a validated partition of the state space,
//! * [`is_exactly_lumpable`] — Kemeny–Snell strong-lumpability test,
//! * [`lump_exact`] — the lumped TPM of an exactly lumpable partition,
//! * [`lump_weighted`] — the aggregated TPM with respect to a weight vector
//!   (rows of each block averaged with the block-conditional weights).
//!
//! # Symbolic/numeric split
//!
//! The sparsity pattern of the weighted-lumped matrix depends only on the
//! fine pattern and the partition — the weights touch the *values* alone.
//! Solvers that re-aggregate every iteration (aggregation/disaggregation
//! multigrid rebuilds the coarse chain from the current iterate each
//! cycle) therefore split the work:
//!
//! * [`LumpPlan`] — one-time **symbolic** setup: the coarse CSR pattern, a
//!   fine-entry → coarse-slot gather map replaying the from-scratch
//!   assembly order exactly, and the transpose permutation,
//! * [`LumpWorkspace`] — preallocated per-level numeric buffers,
//! * [`lump_weighted_into`] — the **numeric** refresh: recomputes values
//!   into an existing matrix with zero heap allocations, bit-identical to
//!   [`lump_weighted`] for strictly positive weights (see the invalidation
//!   and precision notes on [`LumpPlan`]).
//!
//! Both the plan and the refresh take any validated [`Chain`] and pick
//! their algorithm from [`Chain::csr`]: a chain with CSR storage gets the
//! fine-entry gather map, a matrix-free chain (the implicit Kronecker
//! fine grid) is re-traversed row by row with the same summation order.

use stochcdr_linalg::{par, CooMatrix, CsrMatrix};

use crate::{Chain, MarkovError, Result, StochasticMatrix};

/// Fixed row-chunk size for the parallel aggregation kernels. A pure
/// constant (never derived from the thread count) so the order in which
/// per-chunk results are concatenated/combined — and hence every
/// floating-point sum — is identical for every thread count.
const LUMP_CHUNK: usize = 4096;

/// A partition of `0..n` into disjoint, exhaustive blocks.
///
/// # Example
///
/// ```
/// use stochcdr_markov::lumping::Partition;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let part = Partition::from_labels(vec![0, 0, 1, 1])?;
/// assert_eq!(part.block_count(), 2);
/// assert_eq!(part.members()[1], vec![2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `block_of[state]` — the block index of each state.
    block_of: Vec<usize>,
    /// Number of blocks.
    blocks: usize,
    /// CSR-style member index: block `b`'s members (ascending) are
    /// `member_idx[member_ptr[b]..member_ptr[b + 1]]`. Precomputed so the
    /// aggregation kernels can *gather* per block — each block summed by
    /// one worker in ascending member order, which reproduces the serial
    /// scatter bit for bit at any thread count.
    member_ptr: Vec<usize>,
    /// Members of all blocks, grouped by block, ascending within a block.
    member_idx: Vec<usize>,
}

impl Partition {
    /// Builds a partition from per-state block labels.
    ///
    /// Labels must form a contiguous range `0..blocks` (every block
    /// non-empty).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if labels are empty or some
    /// block in the range is unused.
    pub fn from_labels(block_of: Vec<usize>) -> Result<Self> {
        if block_of.is_empty() {
            return Err(MarkovError::InvalidArgument("empty partition".into()));
        }
        let blocks = block_of.iter().copied().max().unwrap() + 1;
        let mut seen = vec![false; blocks];
        for &b in &block_of {
            seen[b] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(MarkovError::InvalidArgument(format!(
                "block {missing} has no members"
            )));
        }
        Ok(Partition::build(block_of, blocks))
    }

    /// The trivial partition with every state in its own block.
    pub fn discrete(n: usize) -> Self {
        Partition::build((0..n).collect(), n)
    }

    /// Assembles the CSR-style member index (counting sort by block).
    fn build(block_of: Vec<usize>, blocks: usize) -> Self {
        let mut member_ptr = vec![0usize; blocks + 1];
        for &b in &block_of {
            member_ptr[b + 1] += 1;
        }
        for b in 0..blocks {
            member_ptr[b + 1] += member_ptr[b];
        }
        let mut member_idx = vec![0usize; block_of.len()];
        let mut next = member_ptr.clone();
        for (s, &b) in block_of.iter().enumerate() {
            member_idx[next[b]] = s;
            next[b] += 1;
        }
        Partition {
            block_of,
            blocks,
            member_ptr,
            member_idx,
        }
    }

    /// Number of states partitioned.
    pub fn n(&self) -> usize {
        self.block_of.len()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Block index of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state >= n()`.
    pub fn block_of(&self, state: usize) -> usize {
        self.block_of[state]
    }

    /// Per-state labels.
    pub fn labels(&self) -> &[usize] {
        &self.block_of
    }

    /// Collects the members of each block.
    pub fn members(&self) -> Vec<Vec<usize>> {
        (0..self.blocks)
            .map(|b| self.block_members(b).to_vec())
            .collect()
    }

    /// The members of one block, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`.
    pub fn block_members(&self, block: usize) -> &[usize] {
        &self.member_idx[self.member_ptr[block]..self.member_ptr[block + 1]]
    }
}

/// Per-block weight totals and sizes, gathered in ascending member order
/// (bit-identical to the serial state-order scatter, parallelizable).
fn block_weights(partition: &Partition, w: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let nb = partition.block_count();
    let mut weight = vec![0.0f64; nb];
    par::for_each_chunk_mut(&mut weight, |b0, chunk| {
        for (k, acc) in chunk.iter_mut().enumerate() {
            *acc = 0.0;
            for &i in partition.block_members(b0 + k) {
                *acc += w[i];
            }
        }
    });
    let size = (0..nb).map(|b| partition.block_members(b).len()).collect();
    (weight, size)
}

/// Tests Kemeny–Snell strong lumpability: the partition is exactly lumpable
/// iff for every pair of states in the same block, the total transition
/// probability into *each* block agrees (within `tol`).
///
/// # Panics
///
/// Panics if `partition.n() != p.n()`.
pub fn is_exactly_lumpable(p: &StochasticMatrix, partition: &Partition, tol: f64) -> bool {
    assert_eq!(partition.n(), p.n(), "partition must cover the state space");
    let nb = partition.block_count();
    let mut reference: Vec<Option<Vec<f64>>> = vec![None; nb];
    let mut row_mass = vec![0.0f64; nb];
    for i in 0..p.n() {
        row_mass.fill(0.0);
        for (j, v) in p.matrix().row(i) {
            row_mass[partition.block_of(j)] += v;
        }
        let b = partition.block_of(i);
        match &reference[b] {
            None => reference[b] = Some(row_mass.clone()),
            Some(r) => {
                for (a, b) in r.iter().zip(&row_mass) {
                    if (a - b).abs() > tol {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Lumps an exactly lumpable chain.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] if the partition fails the
/// strong-lumpability test at tolerance `tol`.
pub fn lump_exact(
    p: &StochasticMatrix,
    partition: &Partition,
    tol: f64,
) -> Result<StochasticMatrix> {
    if !is_exactly_lumpable(p, partition, tol) {
        return Err(MarkovError::InvalidArgument(
            "partition is not exactly lumpable; use lump_weighted".into(),
        ));
    }
    // Any member row represents its block; use uniform weights.
    let w = vec![1.0; p.n()];
    lump_weighted(p, partition, &w)
}

/// Aggregates the chain with respect to non-negative weights `w` (typically
/// the current iterate of the stationary vector):
///
/// ```text
/// P_c(A, B) = Σ_{i∈A} (w_i / W_A) Σ_{j∈B} P(i, j),   W_A = Σ_{i∈A} w_i.
/// ```
///
/// Blocks with zero total weight fall back to uniform weights within the
/// block, so the aggregated matrix is always a valid TPM.
///
/// This is the restriction operator of aggregation/disaggregation multigrid
/// and the TPM of the weakly lumped chain when `w` is the initial
/// distribution.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] if `w` has negative entries or
/// wrong length.
pub fn lump_weighted(
    p: &StochasticMatrix,
    partition: &Partition,
    w: &[f64],
) -> Result<StochasticMatrix> {
    let n = p.n();
    if partition.n() != n {
        return Err(MarkovError::InvalidArgument(
            "partition size does not match state count".into(),
        ));
    }
    if w.len() != n {
        return Err(MarkovError::InvalidArgument(
            "weight vector length mismatch".into(),
        ));
    }
    if w.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(MarkovError::InvalidArgument(
            "weights must be non-negative".into(),
        ));
    }
    let nb = partition.block_count();
    let (block_weight, block_size) = block_weights(partition, w);
    // Triplet generation parallelizes over fixed-size row chunks; the
    // chunks are then pushed in ascending order, so the duplicate-summing
    // in `to_csr` sees exactly the serial (state-ascending) sequence.
    let chunks = par::map_chunks(n, LUMP_CHUNK, |range| {
        let mut tri: Vec<(usize, usize, f64)> = Vec::new();
        for i in range {
            let bi = partition.block_of(i);
            let wi = if block_weight[bi] > 0.0 {
                w[i] / block_weight[bi]
            } else {
                1.0 / block_size[bi] as f64
            };
            if wi == 0.0 {
                continue;
            }
            for (j, v) in p.matrix().row(i) {
                tri.push((bi, partition.block_of(j), wi * v));
            }
        }
        tri
    });
    let mut coo = CooMatrix::with_capacity(nb, nb, p.nnz().min(nb * nb));
    for tri in chunks {
        for (r, c, v) in tri {
            coo.push(r, c, v);
        }
    }
    let csr = fix_row_sums(coo.to_csr());
    StochasticMatrix::with_tolerance(csr, 1e-6)
}

/// Clamps accumulated round-off so row sums are exactly one before the
/// stochastic-matrix validation (aggregation of ~1e6 entries can drift a
/// few ulps beyond the default tolerance).
fn fix_row_sums(m: CsrMatrix) -> CsrMatrix {
    let sums = m.row_sums();
    let factors: Vec<f64> = sums
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 1.0 })
        .collect();
    m.scale_rows(&factors)
}

/// One-time symbolic setup for repeated weighted lumping over a fixed
/// fine pattern and partition.
///
/// The plan precomputes everything [`lump_weighted`] derives from the
/// sparsity structure alone:
///
/// * the coarse CSR pattern (`indptr`/`indices`),
/// * per coarse slot, the list of fine entries that sum into it — in
///   **exactly** the order the from-scratch COO assembly visits them
///   (fine rows ascending, entries in column order, then the same
///   unstable sort by coarse column the COO→CSR merge performs), so the
///   refreshed values are bit-identical to a fresh [`lump_weighted`],
/// * the transpose permutation feeding the cached `P^T`.
///
/// # Invalidation
///
/// A plan is valid for exactly one (fine pattern, partition) pair: any
/// change to the fine matrix's `indptr`/`indices` or to the partition
/// labels requires a rebuild. Value-only changes never invalidate it.
///
/// # Precision
///
/// For strictly positive weights the refresh reproduces the from-scratch
/// result bit for bit. When a state has weight exactly `0.0` (while its
/// block has positive total weight), the from-scratch path *drops* that
/// state's entries before the unstable duplicate-merge sort, which may
/// permute equal-column entries differently; the refresh instead keeps
/// the full gather order, so results can differ by the usual summation
/// round-off. Both are valid aggregations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LumpPlan {
    fine_n: usize,
    fine_nnz: usize,
    nb: usize,
    /// Coarse CSR pattern.
    indptr: Vec<usize>,
    indices: Vec<u32>,
    /// Per-slot gather extents into `gather_src`/`gather_row`
    /// (length `nnz() + 1`); doubles as the weight prefix for
    /// nnz-balanced parallel refresh. Empty (length 1) for plans of
    /// matrix-free chains, which gather at refresh time instead.
    gather_ptr: Vec<usize>,
    /// Fine entry index of each gather term, in from-scratch summation
    /// order.
    gather_src: Vec<u32>,
    /// Fine row of each gather term (the weight-share lookup).
    gather_row: Vec<u32>,
    /// Transpose pattern and permutation: `pt.data[m] = data[t_from[m]]`.
    t_indptr: Vec<usize>,
    t_indices: Vec<u32>,
    t_from: Vec<u32>,
    /// Cumulative fine entries per coarse row (length `nb + 1`) — the
    /// work prefix the group-aligned parallel refresh balances on.
    row_cost: Vec<usize>,
    /// Largest fine-entry count of any coarse row; sizes the per-worker
    /// sort scratch of the row-traversal refresh.
    max_row_entries: usize,
    /// Precomputed nnz-balanced blocking of the slot-gather refresh
    /// (weights = gather-list lengths from `gather_ptr`). Built once at
    /// plan time so every numeric refresh dispatches over fixed, L2-sized
    /// blocks with no per-call binary searches; trivial (one empty block)
    /// for row-traversal plans, which balance per coarse row instead. Cached
    /// with the plan — the sweep engine's `FactorCache` keeps plan stacks
    /// behind `Arc`s, so the blocking is shared across sweep points.
    gather_part: par::RowPartition,
}

impl LumpPlan {
    /// Builds the symbolic plan for lumping `chain` with `partition`: a
    /// fine-entry gather map over the chain's CSR pattern when
    /// [`Chain::csr`] has one, otherwise a row traversal of the chain —
    /// the coarse pattern and transpose permutation without a gather map
    /// (there are no fine entry indices without a materialized matrix).
    /// Either way [`lump_weighted_into`] reproduces the same assembly
    /// order, and therefore the same bits, for the same entries.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if the partition does not
    /// cover the chain's state space.
    pub fn build(chain: &dyn Chain, partition: &Partition) -> Result<LumpPlan> {
        match chain.csr() {
            Some(m) => LumpPlan::from_pattern(m.rows(), m.indptr(), m.indices(), partition),
            None => LumpPlan::from_rows(chain, partition),
        }
    }

    /// Builds the symbolic plan from a raw fine CSR pattern.
    ///
    /// This is what lets a whole multigrid plan *stack* be built without
    /// any intermediate numeric matrices: level `k + 1` plans from level
    /// `k`'s [`coarse pattern`](Self::pattern).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] on a size mismatch.
    pub fn from_pattern(
        n: usize,
        indptr: &[usize],
        indices: &[u32],
        partition: &Partition,
    ) -> Result<LumpPlan> {
        if partition.n() != n || indptr.len() != n + 1 {
            return Err(MarkovError::InvalidArgument(
                "partition size does not match state count".into(),
            ));
        }
        let nnz = indptr[n];
        let nb = partition.block_count();
        // Replay of the from-scratch assembly, applied to entry *indices*
        // instead of values. Step 1: counting sort of the (coarse row,
        // coarse col, fine entry) triplets by coarse row — stable by fine
        // insertion order, exactly like `CooMatrix::to_csr`.
        let mut row_counts = vec![0usize; nb + 1];
        for i in 0..n {
            row_counts[partition.block_of(i) + 1] += indptr[i + 1] - indptr[i];
        }
        for b in 0..nb {
            row_counts[b + 1] += row_counts[b];
        }
        let mut next = row_counts.clone();
        let mut cols_buf = vec![0u32; nnz];
        let mut ent_buf = vec![0u32; nnz];
        for i in 0..n {
            let bi = partition.block_of(i);
            for (k, &j) in indices
                .iter()
                .enumerate()
                .take(indptr[i + 1])
                .skip(indptr[i])
            {
                let slot = next[bi];
                cols_buf[slot] = partition.block_of(j as usize) as u32;
                ent_buf[slot] = k as u32;
                next[bi] += 1;
            }
        }
        // Step 2: per coarse row, the same `sort_unstable_by_key` the
        // COO→CSR merge runs. The scratch element type is deliberately
        // `(u32, f64)` — identical to the value path — because the
        // unstable sort's permutation of equal keys can depend on the
        // element type; the fine entry index rides in the f64 payload
        // (entry counts are far below 2^53, so the round trip is exact).
        let mut c_indptr = Vec::with_capacity(nb + 1);
        c_indptr.push(0usize);
        let mut c_indices: Vec<u32> = Vec::new();
        let mut gather_ptr = vec![0usize];
        let mut gather_src: Vec<u32> = Vec::new();
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for b in 0..nb {
            let (lo, hi) = (row_counts[b], row_counts[b + 1]);
            scratch.clear();
            scratch.extend(
                cols_buf[lo..hi]
                    .iter()
                    .copied()
                    .zip(ent_buf[lo..hi].iter().map(|&k| k as f64)),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                while i < scratch.len() && scratch[i].0 == c {
                    gather_src.push(scratch[i].1 as u32);
                    i += 1;
                }
                c_indices.push(c);
                gather_ptr.push(gather_src.len());
            }
            c_indptr.push(c_indices.len());
        }
        let gather_row: Vec<u32> = gather_src
            .iter()
            .map(|&k| {
                // Fine row of entry k: the partition of indptr is
                // monotone, so a binary search recovers the row.
                (indptr.partition_point(|&p| p <= k as usize) - 1) as u32
            })
            .collect();
        // Step 3: transpose placement.
        let (t_indptr, t_indices, t_from) = transpose_placement(nb, &c_indptr, &c_indices);
        let max_row_entries = row_counts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0);
        let gather_part = par::RowPartition::from_weight_prefix(&gather_ptr);
        Ok(LumpPlan {
            fine_n: n,
            fine_nnz: nnz,
            nb,
            indptr: c_indptr,
            indices: c_indices,
            gather_ptr,
            gather_src,
            gather_row,
            t_indptr,
            t_indices,
            t_from,
            row_cost: row_counts,
            max_row_entries,
            gather_part,
        })
    }

    /// The row-traversal half of [`build`](Self::build).
    fn from_rows(chain: &dyn Chain, partition: &Partition) -> Result<LumpPlan> {
        let n = chain.rows();
        if partition.n() != n {
            return Err(MarkovError::InvalidArgument(
                "partition size does not match state count".into(),
            ));
        }
        let nb = partition.block_count();
        let mut c_indptr = vec![0usize];
        let mut c_indices: Vec<u32> = Vec::new();
        let mut row_cost = vec![0usize; nb + 1];
        let mut max_row_entries = 0usize;
        let mut scratch: Vec<u32> = Vec::new();
        for b in 0..nb {
            scratch.clear();
            for &i in partition.block_members(b) {
                chain.for_each_in_row(i, &mut |j, _| {
                    scratch.push(partition.block_of(j) as u32);
                });
            }
            row_cost[b + 1] = row_cost[b] + scratch.len();
            max_row_entries = max_row_entries.max(scratch.len());
            scratch.sort_unstable();
            scratch.dedup();
            c_indices.extend_from_slice(&scratch);
            c_indptr.push(c_indices.len());
        }
        let (t_indptr, t_indices, t_from) = transpose_placement(nb, &c_indptr, &c_indices);
        Ok(LumpPlan {
            fine_n: n,
            fine_nnz: row_cost[nb],
            nb,
            indptr: c_indptr,
            indices: c_indices,
            gather_ptr: vec![0],
            gather_src: Vec::new(),
            gather_row: Vec::new(),
            t_indptr,
            t_indices,
            t_from,
            row_cost,
            max_row_entries,
            gather_part: par::RowPartition::from_weight_prefix(&[0]),
        })
    }

    /// Whether this plan carries a fine-entry gather map (built from a
    /// CSR pattern) rather than refreshing by row traversal.
    fn has_gather_map(&self) -> bool {
        self.gather_ptr.len() == self.nnz() + 1
    }

    /// Builds the plan stack for a whole coarsening hierarchy: plan `k`
    /// lumps level `k`'s pattern with `partitions[k]`, and level `k + 1`
    /// plans from plan `k`'s coarse pattern — no numeric matrices needed.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if any partition does not
    /// chain (`partitions[k].n()` must equal the previous block count).
    pub fn build_stack(fine: &dyn Chain, partitions: &[Partition]) -> Result<Vec<LumpPlan>> {
        let mut plans: Vec<LumpPlan> = Vec::with_capacity(partitions.len());
        for part in partitions {
            let plan = match plans.last() {
                None => LumpPlan::build(fine, part)?,
                Some(prev) => LumpPlan::from_pattern(prev.nb, &prev.indptr, &prev.indices, part)?,
            };
            plans.push(plan);
        }
        Ok(plans)
    }

    /// Fine state count the plan was built for.
    pub fn fine_n(&self) -> usize {
        self.fine_n
    }

    /// Fine stored-entry count the plan was built for.
    pub fn fine_nnz(&self) -> usize {
        self.fine_nnz
    }

    /// Number of coarse blocks.
    pub fn block_count(&self) -> usize {
        self.nb
    }

    /// Stored entries in the coarse pattern.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The coarse CSR pattern `(indptr, indices)`.
    pub fn pattern(&self) -> (&[usize], &[u32]) {
        (&self.indptr, &self.indices)
    }
}

/// Transpose placement for a coarse CSR pattern — counting sort by
/// coarse column, rows ascending, mirroring `CsrMatrix::transpose`.
/// Returns `(t_indptr, t_indices, t_from)` with
/// `pt.data[m] = data[t_from[m]]`.
fn transpose_placement(
    nb: usize,
    c_indptr: &[usize],
    c_indices: &[u32],
) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
    let nnz_c = c_indices.len();
    let mut t_counts = vec![0usize; nb + 1];
    for &c in c_indices {
        t_counts[c as usize + 1] += 1;
    }
    for b in 0..nb {
        t_counts[b + 1] += t_counts[b];
    }
    let t_indptr = t_counts.clone();
    let mut t_indices = vec![0u32; nnz_c];
    let mut t_from = vec![0u32; nnz_c];
    let mut t_next = t_counts;
    for r in 0..nb {
        for (k, &c) in c_indices
            .iter()
            .enumerate()
            .take(c_indptr[r + 1])
            .skip(c_indptr[r])
        {
            let slot = t_next[c as usize];
            t_indices[slot] = r as u32;
            t_from[slot] = k as u32;
            t_next[c as usize] += 1;
        }
    }
    (t_indptr, t_indices, t_from)
}

/// Preallocated numeric buffers for [`lump_weighted_into`].
///
/// After a refresh with weights `w`, the buffers double as the
/// aggregation/disaggregation operators for the *same* `w`:
/// [`block_weight`](Self::block_weight) holds the per-block weight totals
/// (`aggregate(partition, w)` unnormalized) and
/// [`wscale`](Self::wscale) the per-state shares
/// (`w[i] / W_block`, uniform for zero-weight blocks) — exactly the
/// factors [`disaggregate`] recomputes from scratch.
#[derive(Debug, Clone)]
pub struct LumpWorkspace {
    block_weight: Vec<f64>,
    wscale: Vec<f64>,
    /// Per-worker sort buffers for the row-traversal refresh; empty for
    /// gather-map plans. Each slot is preallocated to the plan's largest
    /// coarse row, so the refresh never grows them.
    row_scratch: Vec<Vec<(u32, f64)>>,
}

impl LumpWorkspace {
    /// Allocates buffers sized for `plan`. Plans without a gather map
    /// additionally get one sort buffer per worker thread for the
    /// row-traversal refresh.
    pub fn for_plan(plan: &LumpPlan) -> Self {
        let row_scratch = if plan.has_gather_map() {
            Vec::new()
        } else {
            (0..par::threads().max(1))
                .map(|_| Vec::with_capacity(plan.max_row_entries))
                .collect()
        };
        LumpWorkspace {
            block_weight: vec![0.0; plan.nb],
            wscale: vec![0.0; plan.fine_n],
            row_scratch,
        }
    }

    /// Per-block weight totals from the last refresh.
    pub fn block_weight(&self) -> &[f64] {
        &self.block_weight
    }

    /// Per-state weight shares from the last refresh.
    pub fn wscale(&self) -> &[f64] {
        &self.wscale
    }
}

/// Shared weight validation of the numeric-refresh entry points.
fn validate_weights(n: usize, w: &[f64]) -> Result<()> {
    if w.len() != n {
        return Err(MarkovError::InvalidArgument(
            "weight vector length mismatch".into(),
        ));
    }
    if w.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(MarkovError::InvalidArgument(
            "weights must be non-negative".into(),
        ));
    }
    Ok(())
}

/// Phases 1–2 of every numeric refresh: per-block weight totals
/// (gathered in ascending member order, same as [`block_weights`]) and
/// per-state shares (zero-weight blocks fall back to uniform).
fn refresh_shares(partition: &Partition, w: &[f64], ws: &mut LumpWorkspace) {
    par::for_each_chunk_mut(&mut ws.block_weight, |b0, chunk| {
        for (k, acc) in chunk.iter_mut().enumerate() {
            let mut s = 0.0;
            for &i in partition.block_members(b0 + k) {
                s += w[i];
            }
            *acc = s;
        }
    });
    let bw = &ws.block_weight;
    par::for_each_chunk_mut(&mut ws.wscale, |i0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let i = i0 + k;
            let b = partition.block_of(i);
            *o = if bw[b] > 0.0 {
                w[i] / bw[b]
            } else {
                1.0 / partition.block_members(b).len() as f64
            };
        }
    });
}

/// Numeric-only refresh of a weighted lumping: recomputes the values of
/// `out` (pattern fixed by `plan`) from the fine chain and weights `w`,
/// with **zero heap allocations**.
///
/// The algorithm follows [`Chain::csr`]. With CSR storage, each coarse
/// value is summed from the plan's recorded fine entries (a gather map
/// over the CSR values). Without it, each coarse row is rebuilt by
/// re-traversing its member rows (ascending members, entries in column
/// order), pushing `(coarse column, wscale_i · value)` pairs into a
/// preallocated per-worker buffer, sorting with the same unstable key
/// sort the from-scratch COO assembly runs, and summing runs in place.
/// The sort's permutation depends only on the key sequence (and the
/// element type matches the gather-map plan deliberately), so both
/// algorithms add the same terms in the same order.
///
/// Bit-identical to a from-scratch [`lump_weighted`] for strictly
/// positive weights (see [`LumpPlan`] for the zero-weight caveat); the
/// parallel split is nnz-balanced and, per the determinism contract,
/// produces the same bits at any thread count.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] for the same malformed-weight
/// conditions as [`lump_weighted`], if `out`/`plan`/`chain` shapes are
/// inconsistent, if a chain with CSR storage meets a plan without a
/// gather map, or if a matrix-free chain meets a workspace without
/// per-worker scratch.
pub fn lump_weighted_into(
    chain: &dyn Chain,
    partition: &Partition,
    w: &[f64],
    plan: &LumpPlan,
    ws: &mut LumpWorkspace,
    out: &mut StochasticMatrix,
) -> Result<()> {
    let n = chain.rows();
    if partition.n() != n || plan.fine_n != n {
        return Err(MarkovError::InvalidArgument(
            "lump plan does not match the fine chain/partition".into(),
        ));
    }
    validate_weights(n, w)?;
    if out.n() != plan.nb || out.nnz() != plan.nnz() {
        return Err(MarkovError::InvalidArgument(
            "output matrix does not match the plan's coarse pattern".into(),
        ));
    }
    let fine = chain.csr();
    match fine {
        Some(m) if m.nnz() != plan.fine_nnz || !plan.has_gather_map() => {
            return Err(MarkovError::InvalidArgument(
                "lump plan was not built from this chain's CSR pattern".into(),
            ));
        }
        None if ws.row_scratch.is_empty() => {
            return Err(MarkovError::InvalidArgument(
                "a chain without CSR storage needs a row-traversal plan and its workspace".into(),
            ));
        }
        _ => {}
    }
    debug_assert_eq!(ws.block_weight.len(), plan.nb);
    debug_assert_eq!(ws.wscale.len(), n);
    refresh_shares(partition, w, ws);
    let (pm, ptm) = out.parts_mut();
    let data = pm.data_mut();
    let wscale = &ws.wscale;
    match fine {
        // Slot gather: parallel over the plan's precomputed gather
        // blocking (weights = gather-list lengths); each slot is summed
        // wholly by one worker inside a fixed block.
        Some(csr) => {
            let fine = csr.data();
            par::for_each_partition_mut(data, &plan.gather_part, |start, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let s = start + k;
                    let mut sum = 0.0;
                    for m in plan.gather_ptr[s]..plan.gather_ptr[s + 1] {
                        sum +=
                            wscale[plan.gather_row[m] as usize] * fine[plan.gather_src[m] as usize];
                    }
                    *slot = sum;
                }
            });
        }
        // Row traversal, sort, and run-length sum. Group boundaries are
        // coarse rows; the per-group cost prefix is the fine entry count
        // recorded at plan time.
        None => par::for_each_grouped_chunk_mut(
            data,
            &plan.indptr,
            &plan.row_cost,
            &mut ws.row_scratch,
            |rows, chunk, scratch| {
                let base = plan.indptr[rows.start];
                for b in rows {
                    scratch.clear();
                    for &i in partition.block_members(b) {
                        let wi = wscale[i];
                        chain.for_each_in_row(i, &mut |j, v| {
                            scratch.push((partition.block_of(j) as u32, wi * v));
                        });
                    }
                    scratch.sort_unstable_by_key(|&(c, _)| c);
                    let row_out = &mut chunk[plan.indptr[b] - base..plan.indptr[b + 1] - base];
                    let mut s = 0usize;
                    for slot in row_out.iter_mut() {
                        let c = scratch[s].0;
                        let mut sum = 0.0;
                        while s < scratch.len() && scratch[s].0 == c {
                            sum += scratch[s].1;
                            s += 1;
                        }
                        *slot = sum;
                    }
                    debug_assert_eq!(s, scratch.len(), "coarse row {b} out of sync");
                }
            },
        ),
    }
    renorm_and_refresh_transpose(plan, pm, ptm);
    Ok(())
}

/// Phases 4–5 of every numeric refresh. Phase 4: the two row-scaling
/// passes of the from-scratch path, in order — `fix_row_sums` (guarded
/// inverse) then the unconditional renormalization
/// `StochasticMatrix::with_tolerance` performs; serial, O(coarse nnz).
/// Phase 5: refresh the cached transpose through the precomputed
/// permutation.
fn renorm_and_refresh_transpose(plan: &LumpPlan, pm: &mut CsrMatrix, ptm: &mut CsrMatrix) {
    let data = pm.data_mut();
    for b in 0..plan.nb {
        let row = &mut data[plan.indptr[b]..plan.indptr[b + 1]];
        let s: f64 = row.iter().sum();
        let f = if s > 0.0 { 1.0 / s } else { 1.0 };
        for v in row.iter_mut() {
            *v *= f;
        }
        let row = &mut data[plan.indptr[b]..plan.indptr[b + 1]];
        let s2: f64 = row.iter().sum();
        let f2 = 1.0 / s2;
        for v in row.iter_mut() {
            *v *= f2;
        }
    }
    let data = pm.data();
    let t_data = ptm.data_mut();
    par::for_each_chunk_mut(t_data, |start, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            *o = data[plan.t_from[start + k] as usize];
        }
    });
}

/// Allocates a coarse matrix from the plan's pattern and refreshes it via
/// [`lump_weighted_into`] — the allocating entry point for callers that
/// hold a plan but no matrix yet (hierarchy setup).
///
/// # Errors
///
/// Same as [`lump_weighted_into`].
pub fn lump_with_plan(
    chain: &dyn Chain,
    partition: &Partition,
    w: &[f64],
    plan: &LumpPlan,
    ws: &mut LumpWorkspace,
) -> Result<StochasticMatrix> {
    let csr = CsrMatrix::from_sorted_parts(
        plan.nb,
        plan.nb,
        plan.indptr.clone(),
        plan.indices.clone(),
        vec![0.0; plan.nnz()],
    )
    .map_err(|e| MarkovError::InvalidArgument(format!("corrupt lump plan: {e}")))?;
    let pt = csr.transpose();
    let mut out = StochasticMatrix::from_parts_unchecked(csr, pt);
    lump_weighted_into(chain, partition, w, plan, ws, &mut out)?;
    Ok(out)
}

/// In-place disaggregation with precomputed shares:
/// `out[i] = coarse[block(i)] * share[i]`.
///
/// With `share` = [`LumpWorkspace::wscale`] from a refresh over weights
/// `w`, this equals [`disaggregate`]`(partition, coarse, w)` bit for bit
/// — without recomputing the block weights or allocating.
///
/// # Panics
///
/// Panics if the lengths are inconsistent.
pub fn disaggregate_scaled(partition: &Partition, coarse: &[f64], share: &[f64], out: &mut [f64]) {
    assert_eq!(
        coarse.len(),
        partition.block_count(),
        "coarse vector per block"
    );
    assert_eq!(share.len(), partition.n(), "share per fine state");
    assert_eq!(out.len(), partition.n(), "output per fine state");
    par::for_each_chunk_mut(out, |i0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let i = i0 + k;
            *o = coarse[partition.block_of(i)] * share[i];
        }
    });
}

/// Prolongs a coarse (block) vector back to the fine state space,
/// distributing each block's value according to the fine weights `w`
/// (the disaggregation step of aggregation/disaggregation):
///
/// ```text
/// x_i = X_{block(i)} · w_i / W_{block(i)}
/// ```
///
/// Zero-weight blocks distribute uniformly over their members.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn disaggregate(partition: &Partition, coarse: &[f64], w: &[f64]) -> Vec<f64> {
    assert_eq!(
        coarse.len(),
        partition.block_count(),
        "coarse vector per block"
    );
    assert_eq!(w.len(), partition.n(), "weights per fine state");
    let (block_weight, block_size) = block_weights(partition, w);
    let mut out = vec![0.0; partition.n()];
    // Pure per-state map: parallel over disjoint output chunks.
    par::for_each_chunk_mut(&mut out, |i0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let i = i0 + k;
            let b = partition.block_of(i);
            let share = if block_weight[b] > 0.0 {
                w[i] / block_weight[b]
            } else {
                1.0 / block_size[b] as f64
            };
            *o = coarse[b] * share;
        }
    });
    out
}

/// Aggregates a fine vector to blocks: `X_A = Σ_{i∈A} x_i`.
///
/// # Panics
///
/// Panics if `x.len() != partition.n()`.
pub fn aggregate(partition: &Partition, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), partition.n(), "vector length must match partition");
    let mut out = vec![0.0; partition.block_count()];
    // Gather per block: each block is summed by one worker over its
    // members in ascending order — the same additions, in the same order,
    // as the serial state-order scatter, at any thread count.
    par::for_each_chunk_mut(&mut out, |b0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &i in partition.block_members(b0 + k) {
                acc += x[i];
            }
            *o = acc;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary::{GthSolver, StationarySolver};
    use crate::ImplicitStochastic;
    use stochcdr_linalg::vecops;

    fn chain(n: usize, edges: &[(usize, usize, f64)]) -> StochasticMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in edges {
            coo.push(r, c, v);
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    /// A 4-state chain exactly lumpable to {0,1} vs {2,3}.
    fn lumpable_chain() -> StochasticMatrix {
        chain(
            4,
            &[
                (0, 1, 0.6),
                (0, 2, 0.2),
                (0, 3, 0.2),
                (1, 0, 0.6),
                (1, 2, 0.3),
                (1, 3, 0.1),
                (2, 3, 0.5),
                (2, 0, 0.25),
                (2, 1, 0.25),
                (3, 2, 0.5),
                (3, 0, 0.1),
                (3, 1, 0.4),
            ],
        )
    }

    #[test]
    fn partition_validation() {
        assert!(Partition::from_labels(vec![]).is_err());
        assert!(Partition::from_labels(vec![0, 2]).is_err()); // block 1 missing
        let p = Partition::from_labels(vec![0, 0, 1]).unwrap();
        assert_eq!(p.block_count(), 2);
        assert_eq!(p.members(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn exact_lumpability_detected() {
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        assert!(is_exactly_lumpable(&p, &part, 1e-12));
        // A partition that mixes the blocks is not lumpable.
        let bad = Partition::from_labels(vec![0, 1, 0, 1]).unwrap();
        assert!(!is_exactly_lumpable(&p, &bad, 1e-12));
    }

    #[test]
    fn lump_exact_produces_correct_tpm() {
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let l = lump_exact(&p, &part, 1e-12).unwrap();
        assert_eq!(l.n(), 2);
        assert!((l.prob(0, 0) - 0.6).abs() < 1e-12);
        assert!((l.prob(0, 1) - 0.4).abs() < 1e-12);
        assert!((l.prob(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lump_exact_rejects_non_lumpable() {
        let p = lumpable_chain();
        let bad = Partition::from_labels(vec![0, 1, 0, 1]).unwrap();
        assert!(lump_exact(&p, &bad, 1e-12).is_err());
    }

    #[test]
    fn lumped_stationary_matches_aggregated_fine_stationary() {
        // For an exactly lumpable partition, aggregate(η_fine) = η_lumped.
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let l = lump_exact(&p, &part, 1e-12).unwrap();
        let ef = GthSolver::new().solve(&p, None).unwrap().distribution;
        let el = GthSolver::new().solve(&l, None).unwrap().distribution;
        let agg = aggregate(&part, &ef);
        assert!(vecops::dist1(&agg, &el) < 1e-10);
    }

    #[test]
    fn weighted_lumping_with_exact_stationary_is_consistent() {
        // Aggregation with the exact stationary weights reproduces the
        // aggregated stationary as the coarse stationary, for ANY partition
        // (this is the fixed-point property of aggregation/disaggregation).
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 1, 1, 0]).unwrap(); // arbitrary
        let ef = GthSolver::new().solve(&p, None).unwrap().distribution;
        let lc = lump_weighted(&p, &part, &ef).unwrap();
        let el = GthSolver::new().solve(&lc, None).unwrap().distribution;
        let agg = aggregate(&part, &ef);
        assert!(
            vecops::dist1(&agg, &el) < 1e-9,
            "agg {agg:?} vs coarse {el:?}"
        );
    }

    #[test]
    fn aggregate_disaggregate_round_trip() {
        let part = Partition::from_labels(vec![0, 0, 1]).unwrap();
        let w = [0.2, 0.6, 0.7];
        let x = [0.1, 0.3, 0.6];
        let coarse = aggregate(&part, &x);
        assert_eq!(coarse, vec![0.4, 0.6]);
        // Disaggregating with weights proportional to x reproduces x.
        let back = disaggregate(&part, &coarse, &x);
        assert!(vecops::dist1(&back, &x) < 1e-15);
        // Mass is preserved regardless of weights.
        let back2 = disaggregate(&part, &coarse, &w);
        assert!((vecops::sum(&back2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_block_falls_back_to_uniform() {
        let part = Partition::from_labels(vec![0, 0, 1]).unwrap();
        let w = [0.0, 0.0, 1.0];
        let back = disaggregate(&part, &[0.5, 0.5], &w);
        assert_eq!(back, vec![0.25, 0.25, 0.5]);
        // lump_weighted also survives zero-weight blocks.
        let p = lumpable_chain();
        let part4 = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let l = lump_weighted(&p, &part4, &[0.0, 0.0, 0.5, 0.5]).unwrap();
        assert_eq!(l.n(), 2);
    }

    /// Deterministic pseudo-random chain for plan tests.
    fn random_chain(n: usize, seed: u64) -> StochasticMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let deg = 2 + (i % 5);
            let mut row: Vec<f64> = (0..deg).map(|_| next() + 1e-3).collect();
            let s: f64 = row.iter().sum();
            for v in &mut row {
                *v /= s;
            }
            for (k, v) in row.into_iter().enumerate() {
                coo.push(i, (i * 7 + k * 13 + 1) % n, v);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn plan_refresh_is_bit_identical_to_from_scratch() {
        for seed in [1u64, 7, 42] {
            let n = 60;
            let p = random_chain(n, seed);
            let part =
                Partition::from_labels((0..n).map(|i| (i * 11 + seed as usize) % 9).collect())
                    .unwrap();
            let plan = LumpPlan::build(&p, &part).unwrap();
            let mut ws = LumpWorkspace::for_plan(&plan);
            // Strictly positive weights: the bit-identity regime.
            let w: Vec<f64> = (0..n).map(|i| 0.01 + (i as f64 * 0.37).fract()).collect();
            let fresh = lump_weighted(&p, &part, &w).unwrap();
            let planned = lump_with_plan(&p, &part, &w, &plan, &mut ws).unwrap();
            assert_eq!(planned.matrix().indptr(), fresh.matrix().indptr());
            assert_eq!(planned.matrix().indices(), fresh.matrix().indices());
            assert!(
                planned
                    .matrix()
                    .data()
                    .iter()
                    .zip(fresh.matrix().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "values diverge for seed {seed}"
            );
            assert!(
                planned
                    .transposed()
                    .data()
                    .iter()
                    .zip(fresh.transposed().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "transpose values diverge for seed {seed}"
            );
        }
    }

    #[test]
    fn plan_refresh_tracks_changing_weights() {
        let n = 40;
        let p = random_chain(n, 5);
        let part = Partition::from_labels((0..n).map(|i| i / 8).collect()).unwrap();
        let plan = LumpPlan::build(&p, &part).unwrap();
        let mut ws = LumpWorkspace::for_plan(&plan);
        let w1: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut out = lump_with_plan(&p, &part, &w1, &plan, &mut ws).unwrap();
        // Refresh the same matrix with different weights: must equal a
        // fresh lump with those weights.
        let w2: Vec<f64> = (0..n).map(|i| 2.0 + ((i * 31) % 7) as f64).collect();
        lump_weighted_into(&p, &part, &w2, &plan, &mut ws, &mut out).unwrap();
        let fresh = lump_weighted(&p, &part, &w2).unwrap();
        assert!(out
            .matrix()
            .data()
            .iter()
            .zip(fresh.matrix().data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // The workspace doubles as the aggregation operators for w2.
        let bw = aggregate(&part, &w2);
        assert!(ws
            .block_weight()
            .iter()
            .zip(&bw)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let coarse: Vec<f64> = (0..part.block_count()).map(|b| (b + 1) as f64).collect();
        let mut dis = vec![0.0; n];
        disaggregate_scaled(&part, &coarse, ws.wscale(), &mut dis);
        let fresh_dis = disaggregate(&part, &coarse, &w2);
        assert!(dis
            .iter()
            .zip(&fresh_dis)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn plan_stack_chains_through_coarse_patterns() {
        let n = 64;
        let p = random_chain(n, 9);
        let part0 = Partition::from_labels((0..n).map(|i| i / 2).collect()).unwrap();
        let part1 = Partition::from_labels((0..n / 2).map(|i| i / 4).collect()).unwrap();
        let plans = LumpPlan::build_stack(&p, &[part0.clone(), part1.clone()]).unwrap();
        assert_eq!(plans.len(), 2);
        let mut ws0 = LumpWorkspace::for_plan(&plans[0]);
        let w = vec![1.0; n];
        let c0 = lump_with_plan(&p, &part0, &w, &plans[0], &mut ws0).unwrap();
        // Plan 1 was built from plan 0's pattern; it must match the
        // numeric coarse matrix's pattern.
        assert_eq!(plans[1].fine_n(), c0.n());
        assert_eq!(plans[1].fine_nnz(), c0.nnz());
        let mut ws1 = LumpWorkspace::for_plan(&plans[1]);
        let w1 = vec![1.0; c0.n()];
        let c1 = lump_with_plan(&c0, &part1, &w1, &plans[1], &mut ws1).unwrap();
        let fresh = lump_weighted(&c0, &part1, &w1).unwrap();
        assert!(c1
            .matrix()
            .data()
            .iter()
            .zip(fresh.matrix().data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn plan_rejects_mismatched_inputs() {
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let plan = LumpPlan::build(&p, &part).unwrap();
        let mut ws = LumpWorkspace::for_plan(&plan);
        // Wrong weight length.
        let mut out = lump_with_plan(&p, &part, &[1.0; 4], &plan, &mut ws).unwrap();
        assert!(lump_weighted_into(&p, &part, &[1.0; 3], &plan, &mut ws, &mut out).is_err());
        // Negative weights.
        assert!(
            lump_weighted_into(&p, &part, &[1.0, -1.0, 1.0, 1.0], &plan, &mut ws, &mut out)
                .is_err()
        );
        // Plan built for a different partition size.
        let small = Partition::from_labels(vec![0, 1]).unwrap();
        assert!(LumpPlan::from_pattern(4, &[0, 1, 2], &[0, 1], &small).is_err());
    }

    #[test]
    fn operator_plan_matches_gather_plan_bitwise() {
        let n = 60;
        // One raw matrix validated twice: with CSR storage (gather-map
        // plan) and matrix-free (row-traversal plan). Both serve the
        // same renormalized values.
        let raw = random_chain(n, 11).into_inner();
        let rawt = raw.transpose();
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let part = Partition::from_labels((0..n).map(|i| (i * 13 + 4) % 7).collect()).unwrap();
        let gplan = LumpPlan::build(&mat, &part).unwrap();
        let oplan = LumpPlan::build(&imp, &part).unwrap();
        assert!(gplan.has_gather_map());
        assert!(!oplan.has_gather_map());
        assert_eq!(gplan.pattern(), oplan.pattern());
        assert_eq!(gplan.fine_nnz(), oplan.fine_nnz());
        let mut gws = LumpWorkspace::for_plan(&gplan);
        let mut ows = LumpWorkspace::for_plan(&oplan);
        let w: Vec<f64> = (0..n).map(|i| 0.05 + (i as f64 * 0.61).fract()).collect();
        let reference = lump_with_plan(&mat, &part, &w, &gplan, &mut gws).unwrap();
        for t in [1usize, 4] {
            par::set_threads(Some(t));
            let got = lump_with_plan(&imp, &part, &w, &oplan, &mut ows).unwrap();
            assert!(
                got.matrix()
                    .data()
                    .iter()
                    .zip(reference.matrix().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "values diverge at {t} threads"
            );
            assert!(
                got.transposed()
                    .data()
                    .iter()
                    .zip(reference.transposed().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "transpose values diverge at {t} threads"
            );
        }
    }

    #[test]
    fn plan_kinds_reject_the_wrong_refresh() {
        let raw = lumpable_chain().into_inner();
        let rawt = raw.transpose();
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let gplan = LumpPlan::build(&mat, &part).unwrap();
        let oplan = LumpPlan::build(&imp, &part).unwrap();
        let mut gws = LumpWorkspace::for_plan(&gplan);
        let mut ows = LumpWorkspace::for_plan(&oplan);
        let w = [1.0; 4];
        let mut out = lump_with_plan(&mat, &part, &w, &gplan, &mut gws).unwrap();
        // A CSR chain needs a gather map; a matrix-free chain needs the
        // row-traversal workspace.
        assert!(lump_weighted_into(&mat, &part, &w, &oplan, &mut ows, &mut out).is_err());
        assert!(lump_weighted_into(&imp, &part, &w, &gplan, &mut gws, &mut out).is_err());
        // The proper pairings work.
        assert!(lump_weighted_into(&imp, &part, &w, &oplan, &mut ows, &mut out).is_ok());
        assert!(lump_weighted_into(&mat, &part, &w, &gplan, &mut gws, &mut out).is_ok());
    }

    #[test]
    fn discrete_partition_lumps_to_self() {
        let p = lumpable_chain();
        let part = Partition::discrete(4);
        let l = lump_weighted(&p, &part, &[1.0; 4]).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((l.prob(i, j) - p.prob(i, j)).abs() < 1e-12);
            }
        }
    }
}
