//! Sweep acceptance tests: thread-count determinism and the warm-start
//! policy. The cache-counter cross-check against the obs stream lives in
//! its own binary (`cache_counters.rs`): the obs sink is process-global,
//! so it needs a process no other sweep runs in.

mod common;

use common::drift_spec;
use stochcdr::{CdrConfig, SolverChoice};
use stochcdr_linalg::par;
use stochcdr_sweep::{render, run, SweepAxis, SweepSpec};

#[test]
fn sweep_json_is_bitwise_identical_across_thread_counts() {
    let spec = drift_spec();
    let render_at = |t: usize| {
        par::set_threads(Some(t));
        render(&spec, &run(&spec).unwrap().points)
    };
    let one = render_at(1);
    let four = render_at(4);
    assert_eq!(one, four, "sweep JSON differs between 1 and 4 threads");
    // And the cache (shared, scheduling-dependent hit attribution) must
    // not leak into the deterministic output either.
    assert!(!one.contains("cache"), "cache telemetry leaked into JSON");
}

#[test]
fn drift_sweep_factor_hit_rate_exceeds_90_percent() {
    // The PR's acceptance shape at test scale: a 64-point drift-ppm sweep
    // (refinement 8 instead of 32 to stay fast in debug builds) where the
    // drift axis invalidates only the n_r factor, so the factor cache—
    // including the per-level multigrid hierarchy—absorbs ≥ 90% of
    // accesses.
    let base = CdrConfig::builder()
        .phases(16)
        .grid_refinement(8)
        .counter_len(8)
        .white_sigma_ui(0.05)
        .drift(2e-3, 9e-3)
        .build()
        .unwrap();
    let ppm: Vec<f64> = (0..64).map(|i| 2000.0 + 10.0 * i as f64).collect();
    let spec = SweepSpec::new(base)
        .axis(SweepAxis::DriftPpm(ppm))
        .solver(SolverChoice::Multigrid)
        .tol(1e-10);
    let sweep = run(&spec).unwrap();
    let stats = &sweep.cache;
    assert_eq!(sweep.points.len(), 64);
    assert!(
        stats.hit_rate() >= 0.90,
        "hit rate {:.3} below 0.90 ({} hits / {} accesses)\nby kind: {:#?}",
        stats.hit_rate(),
        stats.hits,
        stats.accesses(),
        stats.by_kind
    );
    // The hierarchy is part of the cached state: only one cold build.
    let mg = &stats.by_kind["mg.level"];
    assert!(mg.hits > 0, "hierarchy never reused");
    assert!(mg.misses <= 16, "hierarchy rebuilt per point: {mg:?}");
}

#[test]
fn warm_start_matches_cold_results_within_tolerance() {
    let tol = 1e-12;
    let mk = |warm: bool| {
        let spec = drift_spec().tol(tol).warm_start(warm);
        run(&spec).unwrap().points
    };
    let cold = mk(false);
    let warm = mk(true);
    assert_eq!(cold.len(), warm.len());
    let mut warm_used = 0;
    for (c, w) in cold.iter().zip(&warm) {
        assert!(c.residual <= tol && w.residual <= tol);
        let scale = c.ber.abs().max(w.ber.abs()).max(1e-300);
        assert!(
            (c.ber - w.ber).abs() / scale <= 1e-4 || (c.ber - w.ber).abs() <= 1e3 * tol,
            "point {}: cold BER {} vs warm {}",
            c.flat,
            c.ber,
            w.ber
        );
        warm_used += usize::from(w.warm_started);
    }
    // 12 points in chunks of 8: points 1..8 and 9..12 warm-start.
    assert_eq!(warm_used, 10);
    assert!(cold.iter().all(|p| !p.warm_started));
}
