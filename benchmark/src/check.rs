//! Independent result checks. None of them trusts a number the solver
//! reports about itself: residuals are recomputed here from the chain's
//! one-step kernel, and measures are compared against other solvers or
//! closed forms.

use stochcdr_markov::{ImplicitStochastic, StochasticMatrix};

/// How far a recomputed residual may sit above the requested tolerance.
/// The solver stops on the same L1 residual, but the benchmark sums it in
/// its own order, so the last bits may differ.
pub const RESIDUAL_SLACK: f64 = 1.01;

/// Largest allowed `|Σπ − 1|`.
pub const MASS_TOL: f64 = 1e-9;

/// `‖πP − π‖₁` with `step` computing `πP`.
pub fn residual_l1(pi: &[f64], step: impl FnOnce(&[f64], &mut [f64])) -> f64 {
    let mut y = vec![0.0; pi.len()];
    step(pi, &mut y);
    y.iter().zip(pi).map(|(a, b)| (a - b).abs()).sum()
}

/// π is a probability vector: finite, non-negative, summing to one.
pub fn distribution(pi: &[f64]) -> Result<(), String> {
    if let Some((i, v)) = pi
        .iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite() || **v < 0.0)
    {
        return Err(format!("pi[{i}] = {v:e} is not a probability"));
    }
    let mass: f64 = pi.iter().sum();
    if (mass - 1.0).abs() > MASS_TOL {
        return Err(format!("pi sums to {mass:.15}"));
    }
    Ok(())
}

fn within_tol(residual: f64, tol: f64) -> Result<(), String> {
    if residual <= tol * RESIDUAL_SLACK {
        Ok(())
    } else {
        Err(format!("residual {residual:.3e} above tol {tol:.1e}"))
    }
}

/// π is a stationary distribution of `tpm` to within `tol`.
pub fn stationary(tpm: &StochasticMatrix, pi: &[f64], tol: f64) -> Result<(), String> {
    distribution(pi)?;
    within_tol(residual_l1(pi, |x, y| tpm.step_into(x, y)), tol)
}

/// π is a stationary distribution of the implicit chain `imp` within `tol`.
pub fn stationary_implicit(
    imp: &ImplicitStochastic<'_>,
    pi: &[f64],
    tol: f64,
) -> Result<(), String> {
    distribution(pi)?;
    within_tol(residual_l1(pi, |x, y| imp.step_into(x, y)), tol)
}

/// `|a − b| / |b|` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / b.abs()
    }
}

/// `a ⊗ b` for vectors, `a` outermost (lane 0 varies slowest).
pub fn kron(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| x * y))
        .collect()
}

/// `‖a − b‖₁`.
pub fn dist_l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// `max |a − b|`.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use stochcdr::{CdrConfig, CdrModel, SolverChoice};

    fn small_chain() -> stochcdr::CdrChain {
        let cfg = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        CdrModel::new(cfg).build_chain().unwrap()
    }

    #[test]
    fn solved_distribution_passes() {
        let chain = small_chain();
        let a = chain.analyze(SolverChoice::Multigrid).unwrap();
        assert_eq!(stationary(chain.tpm(), &a.stationary, 1e-12), Ok(()));
    }

    #[test]
    fn perturbed_distribution_counts_as_a_failure() {
        let chain = small_chain();
        let a = chain.analyze(SolverChoice::Multigrid).unwrap();
        // Move mass between two states: still a probability vector, no
        // longer stationary.
        let mut moved = a.stationary.clone();
        let d = moved[0].min(moved[1]) * 0.5;
        moved[0] -= d;
        moved[1] += d;
        assert!(distribution(&moved).is_ok());
        let mut negative = a.stationary.clone();
        negative[2] = -negative[2];
        let mut scaled = a.stationary.clone();
        scaled.iter_mut().for_each(|v| *v *= 1.001);

        let mut r = Report::new(false);
        for pi in [&moved, &negative, &scaled] {
            r.attempted += 1;
            if let Err(e) = stationary(chain.tpm(), pi, 1e-12) {
                r.fail(e);
            }
        }
        assert_eq!(r.failed(), 3, "{:?}", r.failures);
        assert!(!r.correct());
    }

    #[test]
    fn kron_orders_lane_zero_outermost() {
        assert_eq!(kron(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 4.0, 6.0, 8.0]);
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert!((rel_diff(1.1, 1.0) - 0.1).abs() < 1e-12);
    }
}
