//! Kernel, bandwidth and thread-scaling probes of the traced run.
//!
//! The kernel probe applies one step `x·P` of the 65,536-state two-lane
//! product three ways, at one pool thread:
//!
//! * `StochasticMatrix::step_into` on the materialized CSR (linalg SpMV),
//! * `ImplicitStochastic::step_into`, the row gather the implicit solve
//!   runs (walks every materialized entry through the factor rows),
//! * `KroneckerOp::mul_left_into`, the mode-by-mode shuffle product
//!   (touches `Σ_k (N/n_k)·nnz_k` entries).
//!
//! Bytes moved are computed, not measured: every touched entry costs a
//! value and a column index (12 B), and every pass over the state vector
//! reads `x` and writes `y` (16 B per state).

use std::hint::black_box;
use std::time::Instant;

use stochcdr::ProductChain;
use stochcdr_linalg::{par, TransitionOp};
use stochcdr_markov::{ImplicitStochastic, StochasticMatrix};

use crate::check;
use crate::gen::Rng;
use crate::stats;

/// Row-sum tolerance the product path validates its operator with.
pub const PRODUCT_TOL: f64 = 1e-6;

/// Last-level cache of the 2-vCPU Xeon host the benchmark was tuned on
/// (one 105 MiB L3).
pub const LLC_BYTES: usize = 105 << 20;

/// Largest allowed difference between two kernels' outputs, relative to
/// the largest output entry: they differ only in summation order.
pub const KERNEL_AGREE_TOL: f64 = 1e-12;

#[derive(Debug, Clone)]
pub struct KernelProbe {
    pub states: usize,
    pub csr_nnz: usize,
    pub shuffle_entries: usize,
    pub csr_step_s: f64,
    pub gather_s: f64,
    pub shuffle_s: f64,
    /// `max |Δ|` of gather and shuffle against the CSR step.
    pub gather_diff: f64,
    pub shuffle_diff: f64,
    pub max_out: f64,
    /// CSR step at `par::available()` threads.
    pub csr_step_nt_s: f64,
    pub threads: usize,
    /// The CSR step gives the same bits at 1 and at `threads` threads.
    pub threads_bit_identical: bool,
}

/// Computed bytes of one apply that touches `entries` stored entries and
/// makes `passes` passes over the state vector.
pub fn bytes_moved(entries: usize, passes: usize, states: usize) -> f64 {
    12.0 * entries as f64 + 16.0 * (passes * states) as f64
}

impl KernelProbe {
    pub fn agrees(&self) -> bool {
        self.gather_diff <= KERNEL_AGREE_TOL * self.max_out
            && self.shuffle_diff <= KERNEL_AGREE_TOL * self.max_out
    }
}

/// Median seconds per call of `f` over enough calls to fill ~`budget`
/// seconds (at least 5), after one warm call.
pub fn time_per_call(budget: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64();
    let reps = ((budget / one.max(1e-9)) as usize).clamp(5, 1000);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Times the three apply kernels on `product`. Leaves the pool at
/// `par::available()` threads.
pub fn kernel_probe(product: &ProductChain, seed: u64) -> Result<KernelProbe, String> {
    let op = product.operator();
    let imp = ImplicitStochastic::with_tolerance(op, op.transposed(), PRODUCT_TOL)
        .map_err(|e| e.to_string())?;
    let tpm = StochasticMatrix::with_tolerance(op.materialize(), PRODUCT_TOL)
        .map_err(|e| e.to_string())?;
    let n = op.dim();
    let mut rng = Rng::new(seed ^ 0xC5A);
    let mut x: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
    let mass: f64 = x.iter().sum();
    x.iter_mut().for_each(|v| *v /= mass);
    let (mut y_csr, mut y_gather, mut y_shuffle) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);

    par::set_threads(Some(1));
    let csr_step_s = time_per_call(0.5, || tpm.step_into(black_box(&x), &mut y_csr));
    let gather_s = time_per_call(0.5, || imp.step_into(black_box(&x), &mut y_gather));
    let shuffle_s = time_per_call(0.5, || op.mul_left_into(black_box(&x), &mut y_shuffle));
    let threads = par::available();
    par::set_threads(Some(threads));
    let mut y_nt = vec![0.0; n];
    let csr_step_nt_s = time_per_call(0.5, || tpm.step_into(black_box(&x), &mut y_nt));

    Ok(KernelProbe {
        states: n,
        csr_nnz: tpm.nnz(),
        shuffle_entries: op.apply_cost(),
        csr_step_s,
        gather_s,
        shuffle_s,
        gather_diff: check::max_abs_diff(&y_gather, &y_csr),
        shuffle_diff: check::max_abs_diff(&y_shuffle, &y_csr),
        threads_bit_identical: y_nt == y_csr,
        max_out: y_csr.iter().copied().fold(0.0, f64::max),
        csr_step_nt_s,
        threads,
    })
}

#[derive(Debug, Clone, Copy)]
pub struct StreamProbe {
    /// Bytes of all three arrays together.
    pub array_bytes: usize,
    pub gbps: f64,
}

/// Single-thread STREAM triad `a = b + s·c` over three arrays whose total
/// size is at least 4× [`LLC_BYTES`], so every pass streams from DRAM.
/// Counts 24 B per element (two reads, one write).
pub fn stream_probe() -> StreamProbe {
    let n = (4 * LLC_BYTES).div_ceil(3 * 8);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let secs = time_per_call(0.0, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
    });
    StreamProbe {
        array_bytes: 3 * 8 * n,
        gbps: 24.0 * n as f64 / secs / 1e9,
    }
}
