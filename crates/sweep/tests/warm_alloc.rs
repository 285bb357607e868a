//! Allocation coverage for the sweep engine's warm paths, on the
//! workspace's shared accounting allocator
//! ([`stochcdr_obs::mem::TrackingAlloc`]).
//!
//! Two claims, measured on the main thread with obs off and a serial
//! pool so the counts are a pure function of the work:
//!
//! 1. Re-running a sweep against a warm [`FactorCache`] allocates
//!    strictly less than the cold run — the cached factors (row
//!    skeletons, pmfs, multigrid hierarchy) really are reused, not
//!    rebuilt. (Per-point chain assembly still allocates either way, so
//!    the saving is real but bounded.)
//! 2. Enabling warm-started solves does not add allocations over cold
//!    solves at the same cache state: the warm chain only seeds the
//!    iterate, and warm multigrid cycles run in preallocated buffers.

use stochcdr::{CdrConfig, SolverChoice};
use stochcdr_linalg::par;
use stochcdr_obs::mem;
use stochcdr_sweep::{run_with, FactorCache, SweepAxis, SweepSpec};

#[global_allocator]
static GLOBAL: mem::TrackingAlloc = mem::TrackingAlloc::new();

fn spec(warm_start: bool) -> SweepSpec {
    let base = CdrConfig::builder()
        .phases(4)
        .grid_refinement(2)
        .counter_len(4)
        .white_sigma_ui(0.08)
        .drift(2e-2, 8e-2)
        .build()
        .unwrap();
    let ppm: Vec<f64> = (0..6).map(|i| 2.0e4 + 250.0 * i as f64).collect();
    SweepSpec::new(base)
        .axis(SweepAxis::DriftPpm(ppm))
        .solver(SolverChoice::Multigrid)
        .tol(1e-11)
        .warm_start(warm_start)
}

/// Main-thread allocation count of one `run_with` against `cache`.
fn allocs_of_run(spec: &SweepSpec, cache: &FactorCache) -> u64 {
    let mark = mem::thread_mark();
    let points = run_with(spec, cache).unwrap();
    assert_eq!(points.len(), 6);
    mark.delta().1
}

#[test]
fn warm_cache_and_warm_starts_do_not_inflate_allocations() {
    let _ = stochcdr_obs::uninstall();
    par::set_threads(Some(1));
    assert!(mem::tracking_active(), "tracking allocator not installed");

    let cold_spec = spec(false);
    let cache = FactorCache::new();
    let cold = allocs_of_run(&cold_spec, &cache);
    let misses_cold = cache.stats().misses;
    let cached = allocs_of_run(&cold_spec, &cache);
    assert!(
        cached < cold,
        "warm cache saved nothing: cold run {cold} allocations, cached rerun {cached}"
    );
    // And the saving is the cache's doing: the rerun missed nothing.
    assert_eq!(cache.stats().misses, misses_cold, "cached rerun missed");

    // Same warm cache state for both solve modes: warm-started solves may
    // only save allocations (fewer cycles), never add any.
    let warm_spec = spec(true);
    let warm = allocs_of_run(&warm_spec, &cache);
    assert!(
        warm <= cached,
        "warm-started solves allocated more than cold ones: {warm} vs {cached}"
    );
}
