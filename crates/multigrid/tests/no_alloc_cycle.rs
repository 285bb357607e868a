//! Proof of the symbolic/numeric split's headline claim: after
//! [`MultigridSolver::prepare`], a cycle performs **zero heap
//! allocations**.
//!
//! Every coarse operator, transpose, scatter map, and scratch vector is
//! owned by the [`MgHierarchy`]; the numeric refresh and the smoothers
//! write into those buffers in place. The workspace's accounting
//! allocator ([`stochcdr_obs::mem::TrackingAlloc`]) tallies allocations
//! across warm cycles and demands none — the same instrument CI's
//! memory smoke (`scripts/mem_smoke.sh`) runs. It counts the calling
//! thread's allocations only, and every chain here stays below
//! [`par::PARALLEL_CUTOFF`], so all measured work runs on the calling
//! thread and concurrent tests cannot leak into the count.

use stochcdr_fsm::KroneckerOp;
use stochcdr_linalg::{par, CooMatrix};
use stochcdr_markov::lumping::Partition;
use stochcdr_markov::{ImplicitStochastic, StochasticMatrix};
use stochcdr_multigrid::{CycleKind, MultigridSolver, Smoother};
use stochcdr_obs::mem;

#[global_allocator]
static GLOBAL: mem::TrackingAlloc = mem::TrackingAlloc::new();

/// Ring chain of `n` states with a small self loop.
fn ring(n: usize) -> StochasticMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, (i + 1) % n, 0.55);
        coo.push(i, (i + n - 1) % n, 0.35);
        coo.push(i, i, 0.1);
    }
    StochasticMatrix::new(coo.to_csr()).unwrap()
}

/// Pairwise partitions halving the state count `levels` times.
fn pair_partitions(mut n: usize, levels: usize) -> Vec<Partition> {
    let mut parts = Vec::new();
    for _ in 0..levels {
        parts.push(Partition::from_labels((0..n).map(|i| i / 2).collect()).unwrap());
        n /= 2;
    }
    parts
}

#[test]
fn warm_cycles_do_not_allocate() {
    // Obs off and a serial pool: the claim is about the solver's own
    // buffers, not about thread-spawn or sink bookkeeping.
    let _ = stochcdr_obs::uninstall();
    par::set_threads(Some(1));

    let n = 64;
    assert!(
        n < par::PARALLEL_CUTOFF,
        "the proof must run on the calling thread"
    );
    let p = ring(n);
    assert!(
        mem::tracking_active(),
        "TrackingAlloc must be installed for this proof to mean anything"
    );
    for kind in [CycleKind::V, CycleKind::F, CycleKind::W] {
        let solver = MultigridSolver::builder(pair_partitions(n, 3))
            .cycle(kind)
            .smoother(Smoother::GaussSeidel)
            .pre_sweeps(1)
            .post_sweeps(2)
            .tol(1e-12)
            .build();
        let mut h = solver.prepare(&p).unwrap();
        let mut x = vec![1.0 / n as f64; n];
        // Warm cycles: touch every code path (refresh, recursion, GTH)
        // once before the measured window.
        for _ in 0..3 {
            solver.cycle(&p, &mut h, &mut x).unwrap();
        }
        let allocated = mem::min_alloc_delta(
            || {
                let res = solver.cycle(&p, &mut h, &mut x).unwrap();
                assert!(res.is_finite());
            },
            5,
        );
        assert_eq!(
            allocated, 0,
            "{kind:?}-cycle allocated {allocated} times after setup"
        );
    }
}

/// The same zero-allocation claim for the matrix-free fine grid: after
/// [`MultigridSolver::prepare`], a warm [`MultigridSolver::cycle`]
/// against a Kronecker product-form operator performs no heap
/// allocations. In particular the Jacobi smoother's per-smooth diagonal
/// comes from `KroneckerOp::diagonal_into` writing into the hierarchy's
/// buffer, not a fresh vector.
#[test]
fn warm_implicit_cycles_do_not_allocate() {
    let _ = stochcdr_obs::uninstall();
    par::set_threads(Some(1));

    // Two ring factors kept in product form: a 64-state joint chain whose
    // fine level is never materialized.
    let op = KroneckerOp::new(vec![ring(8).matrix().clone(), ring(8).matrix().clone()]);
    let tr = op.transposed(); // cached: built once, outside the window
    let imp = ImplicitStochastic::with_tolerance(&op, tr, 1e-9).unwrap();
    let n = op.dim();
    assert!(
        n < par::PARALLEL_CUTOFF,
        "the proof must run on the calling thread"
    );
    assert!(
        mem::tracking_active(),
        "TrackingAlloc must be installed for this proof to mean anything"
    );
    let solver = MultigridSolver::builder(pair_partitions(n, 3))
        .cycle(CycleKind::V)
        .smoother(Smoother::Jacobi { omega: 0.8 })
        .pre_sweeps(1)
        .post_sweeps(2)
        .tol(1e-12)
        .build();
    let mut h = solver.prepare(&imp).unwrap();
    let mut x = vec![1.0 / n as f64; n];
    for _ in 0..3 {
        solver.cycle(&imp, &mut h, &mut x).unwrap();
    }
    let allocated = mem::min_alloc_delta(
        || {
            let res = solver.cycle(&imp, &mut h, &mut x).unwrap();
            assert!(res.is_finite());
        },
        5,
    );
    assert_eq!(
        allocated, 0,
        "implicit Jacobi cycle allocated {allocated} times after setup"
    );
}
