//! Shared harness for the paper-reproduction binaries.
//!
//! Every figure and table of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it; the operating points they share are
//! defined here so EXPERIMENTS.md, the binaries, and the integration tests
//! all use identical parameters.

use stochcdr::{CdrConfig, Result};

pub mod golden;

/// The phase-grid geometry used by the figure experiments: 8 VCO phases
/// (`G = UI/8`, a coarse phase mux whose hunting penalty is visible),
/// refinement 16 → 128 bins/UI.
pub const FIG_PHASES: usize = 8;
/// Grid refinement for the figure experiments.
pub const FIG_REFINEMENT: usize = 16;

/// Baseline `n_w` standard deviation (UI) — the "small noise" panel of
/// Figure 4 (negligible BER).
pub const FIG4_SIGMA_BASE: f64 = 0.007;
/// The paper scales `σ(n_w)` by 10 for the second panel of Figure 4.
pub const FIG4_SIGMA_SCALE: f64 = 10.0;

/// Drift mean per symbol (UI) for the figure experiments.
pub const FIG_DRIFT_MEAN: f64 = 2e-3;
/// Max random drift deviation (UI).
pub const FIG_DRIFT_DEV: f64 = 8e-3;

/// The operating point of the counter-length study (Figure 5): noise
/// levels held constant while the counter length sweeps {4, 8, 16}.
/// Calibrated (see `bin/tune.rs`) so the BER minimum falls at length 8
/// with the fast-loop penalty at 4 and the slow-loop penalty at 16, the
/// shape the paper reports.
pub const FIG5_SIGMA: f64 = 0.05;
/// Figure-5 drift mean.
pub const FIG5_DRIFT_MEAN: f64 = 2e-3;
/// Figure-5 drift deviation.
pub const FIG5_DRIFT_DEV: f64 = 8e-3;

/// Builds the Figure-4 configuration at a given `n_w` scale factor.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn fig4_config(sigma_scale: f64) -> Result<CdrConfig> {
    CdrConfig::builder()
        .phases(FIG_PHASES)
        .grid_refinement(FIG_REFINEMENT)
        .counter_len(8)
        .white_sigma_ui(FIG4_SIGMA_BASE * sigma_scale)
        .drift(FIG_DRIFT_MEAN, FIG_DRIFT_DEV)
        .build()
}

/// Builds the Figure-5 configuration at a given counter length.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn fig5_config(counter_len: usize) -> Result<CdrConfig> {
    CdrConfig::builder()
        .phases(FIG_PHASES)
        .grid_refinement(FIG_REFINEMENT)
        .counter_len(counter_len)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
}

/// A small configuration for smoke tests and the Figure-3 spy plot (the
/// block structure is legible only for modest sizes).
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn small_config() -> Result<CdrConfig> {
    CdrConfig::builder()
        .phases(8)
        .grid_refinement(2)
        .counter_len(4)
        .white_sigma_ui(0.06)
        .drift(1e-2, 4e-2)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build() {
        assert!(fig4_config(1.0).is_ok());
        assert!(fig4_config(FIG4_SIGMA_SCALE).is_ok());
        for c in [4, 8, 16] {
            assert!(fig5_config(c).is_ok());
        }
        assert!(small_config().is_ok());
    }
}
