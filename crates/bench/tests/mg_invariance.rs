//! Regression pin for the symbolic/numeric multigrid split at the
//! benchmark reference operating point (the `bench_snapshot`
//! configuration: Fig. 5 noise parameters, refinement 16).
//!
//! The perf work must not change a single bit of the solve: the cycle
//! count and the final residual are pinned to the exact values the
//! pre-split solver produced. Any arithmetic reordering — in the plan
//! replay, the workspace smoothers, or the in-place coarsest solve —
//! shows up here as a changed bit, not as a tolerance drift.

use stochcdr::{CdrConfig, CdrModel, SolverChoice};
use stochcdr_bench::{FIG5_DRIFT_DEV, FIG5_DRIFT_MEAN, FIG5_SIGMA};
use stochcdr_linalg::par;

fn reference_config() -> CdrConfig {
    CdrConfig::builder()
        .phases(8)
        .grid_refinement(16)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("config")
}

#[test]
fn reference_point_cycle_count_and_residual_are_bit_stable() {
    let chain = CdrModel::new(reference_config())
        .build_chain()
        .expect("chain");
    let analysis = chain.analyze(SolverChoice::Multigrid).expect("analysis");

    assert_eq!(analysis.iterations, 36, "multigrid cycle count drifted");
    assert_eq!(
        analysis.residual, 8.904770992370091e-13,
        "final residual is no longer bit-identical to the pre-split solver"
    );
    // The phase accounting must cover the phases the solve actually ran.
    let phases = analysis.mg_phases.expect("multigrid solve records phases");
    assert!(phases.setup_secs > 0.0);
    assert!(phases.cycle_total_secs() > 0.0);
}

/// The convergence telemetry must be as bit-stable as the solve itself:
/// the per-cycle residual trajectory — and everything the
/// [`ConvergenceTrace`](stochcdr_markov::stationary::ConvergenceTrace)
/// derives from it — is identical across worker-thread counts.
#[test]
fn residual_trajectory_is_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        par::set_threads(Some(threads));
        let chain = CdrModel::new(reference_config())
            .build_chain()
            .expect("chain");
        let solver = chain.multigrid_solver(
            SolverChoice::Multigrid,
            1e-12,
            chain.phase_hierarchy(),
            None,
        );
        solver.solve_with_stats(chain.tpm(), None).expect("solve")
    };
    let (r1, s1) = run(1);
    let (r4, s4) = run(4);

    // Trajectory: every cycle's residual, bit for bit.
    assert_eq!(
        s1.residual_history, s4.residual_history,
        "trajectory drifted"
    );
    assert_eq!(r1.report, r4.report, "solve report drifted across threads");
    assert_eq!(
        s1.convergence, s4.convergence,
        "convergence summary drifted"
    );

    // And it is the trajectory the reference pin describes.
    assert_eq!(r1.report.iterations, 36);
    assert_eq!(r1.report.residual, 8.904770992370091e-13);
    assert_eq!(s1.residual_history.len(), 36);
    // A healthy multigrid solve at the reference point never stalls, and
    // its average contraction is well below the 0.9 stall threshold.
    assert!(!s1.convergence.stalled);
    assert_eq!(s1.convergence.reductions, 35);
    assert!(s1.convergence.ewma_reduction.expect("reductions seen") < 0.9);
}
