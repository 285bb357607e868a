//! Operator-equivalence properties for the unified solver stack: every
//! [`StationarySolver`] must return the same stationary vector no matter
//! which [`TransitionOp`] backend stores the chain, and the parallel
//! kernels must be bit-identical for every thread count.
//!
//! Two strengths of "the same", per the accumulation-order contract in
//! `stochcdr-linalg`:
//!
//! * CSR and dense store the *same* entries and accumulate each output
//!   element in the same ascending source-index order, so every solver
//!   must agree **bitwise** between them.
//! * [`KroneckerOp`] applies mode by mode, which associates the same
//!   products differently, so it agrees with the materialized chain only
//!   to rounding — but with *itself* it must stay bitwise stable across
//!   thread counts. The same holds for the [`ImplicitStochastic`] chain
//!   over it, which adds only a diagonal row scale.

use proptest::prelude::*;
use stochcdr::monte_carlo::MonteCarlo;
use stochcdr::{CdrConfig, CdrModel, SolverChoice};
use stochcdr_fsm::KroneckerOp;
use stochcdr_linalg::{par, vecops, CooMatrix, CsrMatrix, TransitionOp};
use stochcdr_markov::stationary::{JacobiSolver, PowerIteration, StationarySolver};
use stochcdr_markov::{ImplicitStochastic, StochasticMatrix};

/// The paper's Fig.-2 reference architecture (8-phase VCO, overflow
/// counter, SONET-like data) at a grid small enough for dense/GTH runs.
fn fig2_config() -> CdrConfig {
    CdrConfig::builder()
        .phases(8)
        .grid_refinement(2)
        .counter_len(4)
        .white_sigma_ui(0.05)
        .drift(1e-2, 6e-2)
        .build()
        .expect("Fig-2 config")
}

#[test]
fn csr_and_dense_backends_bit_identical_through_every_solver() {
    let chain = CdrModel::new(fig2_config()).build_chain().expect("chain");
    let csr: &CsrMatrix = chain.tpm().matrix();
    let dense = csr.to_dense();
    for choice in SolverChoice::ALL {
        let solver = chain.solver_with_tol(choice, 1e-10);
        let a = solver.solve_op(csr, None).expect("CSR backend");
        let b = solver.solve_op(&dense, None).expect("dense backend");
        assert_eq!(
            a.distribution,
            b.distribution,
            "{}: CSR and dense stationary vectors must be bit-identical",
            solver.name()
        );
        assert_eq!(
            a.iterations(),
            b.iterations(),
            "{}: iteration counts",
            solver.name()
        );
    }
}

/// Random irreducible stochastic factor: ring backbone plus self-loops,
/// rows normalized.
fn factor_strategy(n: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec(0.05f64..1.0, n * 2).prop_map(move |w| {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, w[2 * i]);
            coo.push(i, i, w[2 * i + 1]);
        }
        let m = coo.to_csr();
        let sums = m.row_sums();
        let factors: Vec<f64> = sums.iter().map(|s| 1.0 / s).collect();
        m.scale_rows(&factors)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The product-form operator feeds power iteration and weighted
    /// Jacobi without materializing, and agrees with the materialized
    /// chain to rounding (mode-by-mode association differs, so bitwise
    /// equality is not required across these two backends).
    #[test]
    fn kronecker_backend_matches_materialized(
        a in factor_strategy(3),
        b in factor_strategy(4),
        c in factor_strategy(5),
    ) {
        let op = KroneckerOp::new(vec![a, b, c]);
        let mat = op.materialize_csr();
        let n = op.dim();

        // The two products agree to rounding on a generic vector.
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let via_op = op.mul_left(&x);
        let via_mat = TransitionOp::mul_left(&mat, &x);
        for (u, v) in via_op.iter().zip(&via_mat) {
            prop_assert!((u - v).abs() <= 1e-12 * v.abs().max(1.0));
        }

        // Matrix-free stationary solves land on the materialized answer.
        let solvers: [&dyn StationarySolver; 2] = [
            &PowerIteration::new(1e-12, 200_000),
            &JacobiSolver::new(1e-12, 200_000, 0.8),
        ];
        for solver in solvers {
            let free = solver.solve_op(&op, None).expect("matrix-free solve");
            let dense = solver.solve_op(&mat, None).expect("materialized solve");
            prop_assert!(
                vecops::dist1(&free.distribution, &dense.distribution) < 1e-8,
                "{} disagrees between product form and materialized",
                solver.name()
            );
        }
    }

    /// The allocation-free Kronecker kernels — `mul_left_into`,
    /// `mul_right_into`, and the `for_each_in_row` row enumeration the
    /// direct-from-factors lumping path consumes — agree with the
    /// materialized product on four non-uniform factors, and each output
    /// is bit-identical between a 1-thread and a 4-thread pool (the
    /// block-aligned partition preserves the serial accumulation order).
    #[test]
    fn kronecker_kernels_match_materialized_at_any_pool_size(
        a in factor_strategy(3),
        b in factor_strategy(4),
        c in factor_strategy(5),
        d in factor_strategy(2),
    ) {
        let op = KroneckerOp::new(vec![a, b, c, d]);
        let mat = op.materialize_csr();
        let n = op.dim();
        let x: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 13) % 11) as f64).collect();

        let apply = |threads: usize| {
            par::set_threads(Some(threads));
            let mut left = vec![0.0; n];
            let mut right = vec![0.0; n];
            op.mul_left_into(&x, &mut left);
            op.mul_right_into(&x, &mut right);
            par::set_threads(None);
            (left, right)
        };
        let (l1, r1) = apply(1);
        let (l4, r4) = apply(4);
        prop_assert_eq!(&l1, &l4, "mul_left_into must not depend on pool size");
        prop_assert_eq!(&r1, &r4, "mul_right_into must not depend on pool size");

        // Mode-by-mode association differs from the materialized CSR's
        // per-row accumulation, so the cross-backend comparison is to
        // rounding, not bitwise.
        let mut ml = vec![0.0; n];
        let mut mr = vec![0.0; n];
        TransitionOp::mul_left_into(&mat, &x, &mut ml);
        TransitionOp::mul_right_into(&mat, &x, &mut mr);
        for (u, v) in l1.iter().zip(&ml) {
            prop_assert!((u - v).abs() <= 1e-12 * v.abs().max(1.0));
        }
        for (u, v) in r1.iter().zip(&mr) {
            prop_assert!((u - v).abs() <= 1e-12 * v.abs().max(1.0));
        }

        // Row enumeration: same columns in the same ascending order as
        // the materialized CSR row, values to rounding.
        for row in 0..n {
            let mut got: Vec<(usize, f64)> = Vec::new();
            op.for_each_in_row(row, &mut |c, v| got.push((c, v)));
            let want: Vec<(usize, f64)> = mat.row(row).collect();
            prop_assert_eq!(got.len(), want.len(), "row {} nnz", row);
            for (&(gc, gv), &(wc, wv)) in got.iter().zip(&want) {
                prop_assert_eq!(gc, wc, "row {} column order", row);
                prop_assert!((gv - wv).abs() <= 1e-14 * wv.abs().max(1.0));
            }
        }
    }
}

/// One test drives every thread-sensitive code path at 1 and 4 threads
/// and demands bitwise-equal outputs: TPM assembly, SpMV, all stationary
/// solvers, the Kronecker kernels, and sharded Monte Carlo. (Single test
/// on purpose — the pool size is a process-wide knob.)
#[test]
fn one_thread_and_four_threads_are_bit_identical() {
    let run_all = || {
        let chain = CdrModel::new(fig2_config()).build_chain().expect("chain");
        let tpm_csr = chain.tpm().matrix().clone();
        let n = chain.state_count();
        let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / n as f64).collect();
        let mut spmv = vec![0.0; n];
        chain.tpm().step_into(&x, &mut spmv);
        let stationaries: Vec<Vec<f64>> = SolverChoice::ALL
            .iter()
            .map(|&c| {
                chain
                    .solver_with_tol(c, 1e-10)
                    .solve(chain.tpm(), None)
                    .expect("solve")
                    .distribution
            })
            .collect();
        let kron = KroneckerOp::new(vec![tpm_csr.clone()]);
        let kron_left = kron.mul_left(&x);
        let kron_right = kron.mul_right(&x);
        let mc = MonteCarlo::new(fig2_config()).run_sharded(20_000, 11, 8);
        (tpm_csr, spmv, stationaries, kron_left, kron_right, mc)
    };

    par::set_threads(Some(1));
    let serial = run_all();
    par::set_threads(Some(4));
    let parallel = run_all();
    par::set_threads(None);

    assert_eq!(
        serial.0, parallel.0,
        "TPM assembly must not depend on thread count"
    );
    assert_eq!(serial.1, parallel.1, "SpMV must not depend on thread count");
    for (i, (a, b)) in serial.2.iter().zip(&parallel.2).enumerate() {
        assert_eq!(
            a,
            b,
            "solver {:?} must not depend on thread count",
            SolverChoice::ALL[i]
        );
    }
    assert_eq!(
        serial.3, parallel.3,
        "Kronecker x·A must not depend on thread count"
    );
    assert_eq!(
        serial.4, parallel.4,
        "Kronecker A·x must not depend on thread count"
    );
    assert_eq!(
        serial.5, parallel.5,
        "sharded Monte Carlo must not depend on thread count"
    );
}

/// Banded `n`-state factor whose rows sum to `1 + O(1e-7)`, so the
/// implicit chain's row renormalization is not the identity.
fn drifting_factor(n: usize, seed: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let w = [
            1.0 + ((i * 7 + seed) % 5) as f64,
            2.0,
            1.0 + ((i * 3 + seed) % 4) as f64,
        ];
        let s = w.iter().sum::<f64>() / (1.0 + 1e-7 * ((i + seed) % 3) as f64);
        for (k, v) in w.iter().enumerate() {
            coo.push(i, (i + n - 1 + k) % n, v / s);
        }
    }
    coo.to_csr()
}

/// The implicit chain's products above `par::PARALLEL_CUTOFF`, where the
/// Kronecker shuffle runs on the worker pool: bit-identical for every
/// pool size, and equal to the materialized chain's to 1e-12 relative.
#[test]
fn implicit_kronecker_chain_is_thread_invariant_above_the_parallel_cutoff() {
    let op = KroneckerOp::new(vec![drifting_factor(192, 1), drifting_factor(192, 2)]);
    let n = op.dim();
    assert!(n >= par::PARALLEL_CUTOFF);
    let imp = ImplicitStochastic::with_tolerance(&op, op.transposed(), 1e-6).expect("implicit");
    let mat = StochasticMatrix::with_tolerance(op.materialize(), 1e-6).expect("materialized");
    let x: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 13) % 11) as f64).collect();

    let apply = |threads: usize| {
        par::set_threads(Some(threads));
        let mut step = vec![0.0; n];
        let mut right = vec![0.0; n];
        imp.step_into(&x, &mut step);
        imp.mul_right_into(&x, &mut right);
        par::set_threads(None);
        (step, right)
    };
    let (step, right) = apply(1);
    for threads in [2, 4, 8] {
        let (s, r) = apply(threads);
        assert!(s == step, "step_into differs at {threads} threads");
        assert!(r == right, "mul_right_into differs at {threads} threads");
    }

    let mut want = vec![0.0; n];
    mat.step_into(&x, &mut want);
    for (u, v) in step.iter().zip(&want) {
        assert!((u - v).abs() <= 1e-12 * v.abs(), "step {u} vs {v}");
    }
    TransitionOp::mul_right_into(&mat, &x, &mut want);
    for (u, v) in right.iter().zip(&want) {
        assert!((u - v).abs() <= 1e-12 * v.abs(), "right product {u} vs {v}");
    }
}
