//! Stall detection and cycle escalation under the determinism contract.
//!
//! The adaptive controller and the stall-armed Krylov window are pure
//! functions of the residual history, so the whole decision trajectory —
//! which cycle the stall event fires on, when the schedule escalates,
//! when the accelerator arms — must be bit-identical at any worker
//! thread count. The stall event must also fire exactly **once** per
//! solve even though escalated W-cycles re-enter every level `2^ℓ`
//! times: stall detection lives on the outer iteration's
//! `ConvergenceTrace`, never inside the recursion.

use stochcdr_linalg::{par, vecops, CooMatrix};
use stochcdr_markov::stationary::{GthSolver, StationarySolver};
use stochcdr_markov::StochasticMatrix;
use stochcdr_multigrid::{
    CycleKind, CycleSchedule, KrylovAccel, MultigridSolver, PairwiseCoarsening, Smoother,
};
use stochcdr_obs::artifact::Artifact;
use stochcdr_obs::{self as obs, JsonLinesSink};

/// Nearly completely decomposable chain: `k` clusters of `m` birth–death
/// states with weak coupling `eps` between clusters. Stiff enough that a
/// deliberately underdamped smoother stalls the V-cycle.
fn ncd_chain(k: usize, m: usize, eps: f64) -> StochasticMatrix {
    let n = k * m;
    let (up, down) = (0.7 * (1.0 - eps), 0.3 * (1.0 - eps));
    let mut coo = CooMatrix::new(n, n);
    for c in 0..k {
        for i in 0..m {
            let s = c * m + i;
            if i == 0 {
                coo.push(s, s, down);
            } else {
                coo.push(s, s - 1, down);
            }
            if i == m - 1 {
                coo.push(s, s, up);
            } else {
                coo.push(s, s + 1, up);
            }
            coo.push(s, ((c + 1) % k) * m + i, eps);
        }
    }
    StochasticMatrix::new(coo.to_csr()).unwrap()
}

/// What one observed solve did, reduced to the exactly-comparable parts.
struct Run {
    distribution: Vec<f64>,
    residual_history: Vec<f64>,
    cycle_equivalents: f64,
    final_cycle: CycleKind,
    stalled_at: Option<usize>,
    stall_events: u64,
    escalations: u64,
    armed_events: u64,
    krylov_windows: u64,
}

fn observed_solve(p: &StochasticMatrix, threads: usize) -> Run {
    let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(p.n()))
        .schedule(CycleSchedule::Adaptive)
        .accel(KrylovAccel::on_stall(6))
        .smoother(Smoother::Jacobi { omega: 0.15 })
        .pre_sweeps(0)
        .post_sweeps(1)
        .tol(1e-12)
        .max_cycles(20_000)
        .build();

    let _ = obs::uninstall();
    let (sink, buf) = JsonLinesSink::to_shared_buffer();
    obs::install(Box::new(sink));
    par::set_threads(Some(threads));
    let (result, stats) = solver.solve_with_stats(p, None).unwrap();
    obs::uninstall();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let artifact = Artifact::load_jsonl(&text).expect("artifact parses");
    let count = |name: &str| artifact.events.get(name).copied().unwrap_or(0);
    Run {
        distribution: result.distribution,
        residual_history: stats.residual_history.clone(),
        cycle_equivalents: stats.cycle_equivalents,
        final_cycle: stats.final_cycle,
        stalled_at: result.report.convergence.stalled_at,
        stall_events: count("multigrid.stall"),
        escalations: count("multigrid.cycle_type"),
        armed_events: count("solver.krylov.armed"),
        krylov_windows: stats.krylov_windows,
    }
}

#[test]
fn stall_and_escalation_fire_bit_identically_across_thread_counts() {
    let p = ncd_chain(4, 8, 0.2);
    let runs: Vec<Run> = [1usize, 4]
        .into_iter()
        .map(|threads| observed_solve(&p, threads))
        .collect();

    // The solve itself is honest: it lands on the direct answer.
    let gth = GthSolver::new().solve(&p, None).unwrap();
    assert!(vecops::dist1(&runs[0].distribution, &gth.distribution) < 1e-8);

    for r in &runs {
        // Once-only: the underdamped smoother stalls this chain and the
        // controller escalates into W-cycles (recursion re-enters every
        // level 2^ℓ times), yet exactly one stall event fires.
        assert_eq!(
            r.stall_events, 1,
            "stall must fire exactly once across W-cycle recursion"
        );
        assert!(r.stalled_at.is_some(), "summary must carry the stall cycle");
        assert!(
            r.escalations >= 1,
            "the stalling chain must trigger at least one escalation"
        );
        assert_eq!(
            r.final_cycle,
            CycleKind::W,
            "a persistent stall must walk the schedule up to W"
        );
        // `on_stall` acceleration arms exactly once, when the detector
        // fires, and then actually does work.
        assert_eq!(r.armed_events, 1);
        assert!(r.krylov_windows > 0);
    }

    // Bit-identity at 1 vs 4 worker threads: same distribution bits,
    // same residual trajectory, same controller decisions, same events.
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.distribution.len(), b.distribution.len());
    for (x, y) in a.distribution.iter().zip(&b.distribution) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.residual_history.len(), b.residual_history.len());
    for (x, y) in a.residual_history.iter().zip(&b.residual_history) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.cycle_equivalents.to_bits(), b.cycle_equivalents.to_bits());
    assert_eq!(a.final_cycle, b.final_cycle);
    assert_eq!(a.stalled_at, b.stalled_at);
    assert_eq!(a.escalations, b.escalations);
    assert_eq!(a.krylov_windows, b.krylov_windows);
}
