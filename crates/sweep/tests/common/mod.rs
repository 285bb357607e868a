//! Fixtures shared by the sweep integration tests.

use stochcdr::{CdrConfig, SolverChoice};
use stochcdr_sweep::{SweepAxis, SweepSpec};

fn base() -> CdrConfig {
    CdrConfig::builder()
        .phases(4)
        .grid_refinement(2)
        .counter_len(4)
        .white_sigma_ui(0.08)
        .drift(2e-2, 8e-2)
        .build()
        .unwrap()
}

/// 12 points: crosses a WARM_CHUNK (8) boundary so both the warm-chain
/// and the chunk-parallel paths are exercised.
pub fn drift_spec() -> SweepSpec {
    let ppm: Vec<f64> = (0..12).map(|i| 2.0e4 + 250.0 * i as f64).collect();
    SweepSpec::new(base())
        .axis(SweepAxis::DriftPpm(ppm))
        .solver(SolverChoice::Multigrid)
        .tol(1e-11)
}
