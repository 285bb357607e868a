//! Seeded workload generators. Every input a workload hands to the
//! program is a pure function of `--seed`: the same seed gives the same
//! configurations, bit for bit.

use stochcdr::{CdrConfig, Result};
use stochcdr_sweep::{SweepAxis, SweepSpec};

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// VCO phases of every design point: with 4 data states the chain has
/// `4 · counter · 16 · refinement` states before reachability pruning.
pub const PHASES: usize = 16;

/// One rotation block of `(counter length, refinement)` shapes. The
/// block spans 4,096 to 16,384 states, centred on the reference chain's
/// shape (counter 8, refinement 16), which fills five of the twelve
/// slots. The slowest shape (counter 4, refinement 64: 1M nonzeros,
/// well outside L2) fills three, so the 50th and 90th percentiles of the
/// per-point latency fall inside a shape's cluster, not in the gap
/// between two clusters, and stay put from seed to seed.
pub const SHAPE_BLOCK: [(usize, usize); 12] = [
    (4, 16),
    (8, 16),
    (8, 16),
    (8, 16),
    (8, 16),
    (8, 16),
    (4, 32),
    (16, 16),
    (8, 32),
    (4, 64),
    (4, 64),
    (4, 64),
];

/// One Fig-4/Fig-5 design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    pub counter_len: usize,
    pub refinement: usize,
    pub sigma_nw: f64,
    pub drift_mean: f64,
    pub drift_dev: f64,
}

impl DesignPoint {
    pub fn config(&self) -> Result<CdrConfig> {
        CdrConfig::builder()
            .phases(PHASES)
            .grid_refinement(self.refinement)
            .counter_len(self.counter_len)
            .white_sigma_ui(self.sigma_nw)
            .drift(self.drift_mean, self.drift_dev)
            .build()
    }
}

/// Drift deviations a point takes (UI). A few discrete specs, not a
/// continuum: the deviation sets the drift support and so the nonzeros
/// of the finest chains, and a discrete set puts the heaviest chain,
/// which sets `peak_rss_mib`, in every run.
pub const DRIFT_DEVS: [f64; 3] = [6e-3, 8e-3, 1e-2];

/// σ_nw range of the stream (UI). Across every shape and drift of the
/// stream the slip rate then lies between about 1e-29 and 1e-6 per
/// symbol, where the default tol 1e-12 pins MTBS to about 1e-9 relative.
/// At σ_nw 0.05–0.07 the rates fall to 1e-40–1e-95, below what an L1
/// residual of 1e-12 resolves, and the multigrid MTBS parts from GTH's
/// by up to 100% (see `README.md`, "Deliberately unmeasured").
pub const SIGMA_NW: (f64, f64) = (0.18, 0.22);

/// The `design_points` stream: `n` independent points, shapes dealt from
/// [`SHAPE_BLOCK`] in a fixed rotation, noise drawn per point. The fixed
/// rotation keeps the order of large and small allocations the same from
/// seed to seed, and with it the allocator's fragmentation and so the
/// peak RSS.
pub fn design_points(seed: u64, n: usize) -> Vec<DesignPoint> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for (counter_len, refinement) in SHAPE_BLOCK {
            if out.len() == n {
                break;
            }
            out.push(DesignPoint {
                counter_len,
                refinement,
                sigma_nw: rng.range(SIGMA_NW.0, SIGMA_NW.1),
                drift_mean: rng.range(1e-3, 3e-3),
                drift_dev: DRIFT_DEVS[(rng.next_u64() % 3) as usize],
            });
        }
    }
    out
}

/// The reference chain (8,108 states) the set-up warms up on.
pub fn reference_point() -> DesignPoint {
    DesignPoint {
        counter_len: 8,
        refinement: 16,
        sigma_nw: 0.05,
        drift_mean: 2e-3,
        drift_dev: 8e-3,
    }
}

/// Drift offsets (ppm) and σ_nw of the sweep grid: fixed centres, each
/// moved by a seeded jitter. The jitter changes every value but stays
/// well inside one grid step, so the chains' sparsity patterns, and with
/// them the number of distinct cache entries and the sweep's memory, are
/// the same for every seed.
pub const SWEEP_PPM: [f64; 4] = [700.0, 900.0, 1100.0, 1300.0];
pub const SWEEP_SIGMA: [f64; 2] = [0.05, 0.06];

/// Counter lengths of the sweep grid: three state-space sizes (8,192,
/// 12,288 and 16,384 states at refinement 32), so the median point sits
/// inside the middle size's cluster and the 90th percentile inside the
/// largest's, not in the gap between two clusters.
pub const SWEEP_COUNTERS: [usize; 3] = [4, 6, 8];

/// The `fig5_sweep` grid: counter × 4 drift offsets × 2 σ_nw at
/// refinement 32 — 24 points.
pub fn fig5_spec(seed: u64) -> Result<SweepSpec> {
    let mut rng = Rng::new(seed ^ 0xF165);
    let base = CdrConfig::builder()
        .phases(PHASES)
        .grid_refinement(32)
        .counter_len(8)
        .white_sigma_ui(0.05)
        .drift(2e-3, 8e-3)
        .build()?;
    let ppm = SWEEP_PPM.map(|c| c + rng.range(-25.0, 25.0));
    let sigma = SWEEP_SIGMA.map(|c| c + rng.range(-1.5e-3, 1.5e-3));
    Ok(SweepSpec::new(base)
        .axis(SweepAxis::CounterLen(SWEEP_COUNTERS.to_vec()))
        .axis(SweepAxis::SigmaNw(sigma.to_vec()))
        .axis(SweepAxis::DriftPpm(ppm.to_vec())))
}

/// The two `product_2lane` lanes: 8 phases, refinement 2, counter 4
/// (256 states each), noise drawn per lane near σ_nw 0.05 and drift mean
/// 0.02 UI. The drift is scaled up so it resolves the coarse grid. The
/// draws are narrow on purpose: the solve's Krylov step lands the 12th
/// cycle's residual within a factor of two of the 1e-10 tolerance, so
/// lanes drawn over a wider range (σ 0.0485–0.0505, mean 0.018–0.022)
/// split between 12 and 13 cycles from seed to seed. Near the centre
/// every seed takes 13. Above σ 0.051 each lane also gains transitions
/// (4,028 → 4,324 nonzeros).
pub fn product_lanes(seed: u64) -> Result<[CdrConfig; 2]> {
    let mut rng = Rng::new(seed ^ 0x2_1A7E);
    let mut lane = || {
        CdrConfig::builder()
            .phases(8)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(rng.range(0.0498, 0.0502))
            .drift(rng.range(1.98e-2, 2.02e-2), 8e-2)
            .build()
    };
    Ok([lane()?, lane()?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_points_are_deterministic_per_seed() {
        assert_eq!(design_points(7, 50), design_points(7, 50));
        assert_ne!(design_points(7, 50), design_points(8, 50));
        // A prefix of a longer stream is the shorter stream.
        assert_eq!(design_points(7, 30)[..], design_points(7, 50)[..30]);
    }

    #[test]
    fn design_points_keep_the_shape_mix_per_block() {
        let pts = design_points(3, 2 * SHAPE_BLOCK.len());
        for block in pts.chunks(SHAPE_BLOCK.len()) {
            let shapes: Vec<_> = block
                .iter()
                .map(|p| (p.counter_len, p.refinement))
                .collect();
            assert_eq!(shapes, SHAPE_BLOCK);
        }
        for p in &pts {
            let n = p.config().unwrap().state_count();
            assert!((4096..=16384).contains(&n), "{n} states");
        }
    }

    #[test]
    fn sweep_grid_and_lanes_are_deterministic_per_seed() {
        let (a, b) = (fig5_spec(11).unwrap(), fig5_spec(11).unwrap());
        assert_eq!(a.axes, b.axes);
        assert_eq!(a.base, b.base);
        assert_eq!(a.points(), 24);
        assert_ne!(fig5_spec(12).unwrap().axes, a.axes);
        assert_eq!(product_lanes(5).unwrap(), product_lanes(5).unwrap());
        assert_ne!(product_lanes(5).unwrap(), product_lanes(6).unwrap());
    }
}
