//! **Benchmark snapshot** — one JSON file carrying the deterministic
//! numbers `bench_gate` compares against a committed baseline.
//!
//! Runs the reference operating point (Fig. 5 parameters) end to end —
//! chain build, multigrid stationary solve (fixed-V and adaptive +
//! Krylov), a short Monte-Carlo cross-check and a tiny drift sweep — and
//! serializes the gated fields: state count, TPM nonzeros, cycles and
//! cycle-equivalents, residuals, BER, Monte-Carlo results, sweep cache
//! counts and main-thread allocation counts. Wall-clock performance is
//! measured by the repository benchmark (`benchmark/`), not here.
//!
//! Usage: `cargo run --release -p stochcdr-bench --bin bench_snapshot --
//! [--out BENCH.json] [--refinement N] [--symbols N] [--spmv-only]`.
//!
//! `--spmv-only` skips everything except the large-operator SpMV probe
//! and writes a mini-snapshot with the `spmv_large_*` fields — the cheap
//! unit `scripts/par_gate.sh` repeats to gate the parallel speedup.

use std::fmt::Write as _;
use std::time::Instant;

use stochcdr::monte_carlo::MonteCarlo;
use stochcdr::{CdrChain, CdrConfig, CdrModel, SolverChoice};
use stochcdr_bench::{FIG5_DRIFT_DEV, FIG5_DRIFT_MEAN, FIG5_SIGMA};
use stochcdr_linalg::par;
use stochcdr_markov::StochasticMatrix;
use stochcdr_obs as obs;
use stochcdr_sweep::{run, SweepAxis, SweepSpec};

/// Route allocations through the accounting wrapper so the snapshot can
/// record the allocation counts of chain build and solve.
#[global_allocator]
static GLOBAL: obs::mem::TrackingAlloc = obs::mem::TrackingAlloc::new();

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Mean seconds per `x·P` product over enough repetitions to fill
/// ~0.3 s of wall clock (calibrated from a single warm rep).
fn time_spmv(p: &StochasticMatrix, x: &[f64], y: &mut [f64]) -> f64 {
    p.step_into(x, y); // warm-up, also the calibration rep
    let t0 = Instant::now();
    p.step_into(x, y);
    let one = t0.elapsed().as_secs_f64();
    let reps = ((0.3 / one.max(1e-9)) as u64).clamp(3, 20_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        p.step_into(x, y);
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// The refinement-64 probe chain: >500k nonzeros, far above the
/// `linalg::par` nnz gate.
fn large_chain() -> CdrChain {
    let config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(64)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("large config");
    CdrModel::new(config).build_chain().expect("large chain")
}

/// Runs `apply` (an `x·P` kernel) at 1 thread, then at `threads`, and
/// asserts the determinism contract: bit-identical output for every pool
/// size. Returns `apply`'s two results, 1-thread first.
fn step_parity<R>(
    chain: &CdrChain,
    threads: usize,
    apply: impl Fn(&StochasticMatrix, &[f64], &mut [f64]) -> R,
) -> (R, R) {
    let n = chain.state_count();
    let x = vec![1.0 / n as f64; n];
    let mut y1 = vec![0.0; n];
    let mut yn = vec![0.0; n];
    par::set_threads(Some(1));
    let r1 = apply(chain.tpm(), &x, &mut y1);
    par::set_threads(Some(threads));
    let rn = apply(chain.tpm(), &x, &mut yn);
    assert_eq!(y1, yn, "N-thread SpMV must be bit-identical to 1-thread");
    (r1, rn)
}

/// `--spmv-only`: time `x·P` on the large probe chain at 1 thread (the
/// forced-serial side of the dispatch) vs the configured pool (the
/// parallel kernel) and write a mini-snapshot carrying the `spmv_large_*`
/// fields plus the thread configuration. This is the unit the CI par-gate
/// repeats best-of-3, so it has to stay cheap.
fn run_spmv_only(out_path: &str) {
    let threads = par::threads();
    par::prewarm(); // pool spawn must not land in the measured windows
    let large = large_chain();
    let (spmv_large_1t_secs, spmv_large_nt_secs) = step_parity(&large, threads, time_spmv);
    let spmv_large_speedup = spmv_large_1t_secs / spmv_large_nt_secs;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"stochcdr-bench-snapshot/1\",");
    let _ = writeln!(json, "  \"spmv_only\": true,");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"hw_threads\": {},", par::available());
    let _ = writeln!(json, "  \"spmv_large_states\": {},", large.state_count());
    let _ = writeln!(json, "  \"spmv_large_nnz\": {},", large.nnz());
    let _ = writeln!(json, "  \"spmv_large_1t_secs\": {spmv_large_1t_secs:e},");
    let _ = writeln!(json, "  \"spmv_large_nt_secs\": {spmv_large_nt_secs:e},");
    let _ = writeln!(json, "  \"spmv_large_speedup\": {spmv_large_speedup:.3}");
    json.push_str("}\n");
    obs::json::Json::parse(&json).expect("snapshot serializes to valid JSON");
    std::fs::write(out_path, &json).expect("write snapshot");
    println!(
        "wrote {out_path}: spmv large x{spmv_large_speedup:.2} at {threads} threads \
         ({} hw)",
        par::available()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH.json".to_string());
    if args.iter().any(|a| a == "--spmv-only") {
        run_spmv_only(&out_path);
        return;
    }
    let refinement: usize =
        flag(&args, "--refinement").map_or(16, |v| v.parse().expect("--refinement N"));
    let symbols: u64 =
        flag(&args, "--symbols").map_or(200_000, |v| v.parse().expect("--symbols N"));

    let config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(refinement)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("config");

    // No obs sink is installed, so the main-thread allocation counts of
    // chain build and solve are a pure function of the configuration and
    // thread count, and the gate compares them exactly. Prewarming the
    // pool first keeps its one-time lazy init (env parse + persistent
    // worker spawn) out of the measured windows.
    par::prewarm();
    let mark = obs::mem::thread_mark();
    let chain = CdrModel::new(config.clone()).build_chain().expect("chain");
    let (_, mem_form_alloc_count) = mark.delta();
    let mark = obs::mem::thread_mark();
    let analysis = chain.analyze(SolverChoice::Multigrid).expect("analysis");
    let (_, mem_solve_alloc_count) = mark.delta();

    // Accelerated solve on the same chain: the adaptive V→F→W schedule
    // with the always-on Krylov window (`mgk`). Cycle-equivalents — total
    // fine-grid work in units of one V-cycle — are a pure function of the
    // hierarchy and the controller's decisions, so both solves gate
    // exactly.
    let accel = chain
        .analyze(SolverChoice::MgKrylov)
        .expect("accelerated analysis");

    let mc = MonteCarlo::new(config).run(symbols, 0x5eed);

    // Thread-count bit-identity of the SpMV kernel, on the reference
    // chain (190,589 nonzeros at refinement 32, above the `linalg::par`
    // nnz gate, so the N-thread side runs the parallel kernel) and on the
    // large probe chain.
    let threads = par::threads();
    step_parity(&chain, threads, |p, x, y| p.step_into(x, y));
    let large = large_chain();
    step_parity(&large, threads, |p, x, y| p.step_into(x, y));

    // Tiny drift-ppm sweep: exercises the sweep engine's factor cache so
    // the snapshot records how the multigrid hierarchy ("mg.level") and
    // the symbolic lumping plans ("mg.plan") are reused across points.
    // The counts are deterministic (totals do not depend on scheduling),
    // so they gate exactly.
    let sweep_config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(8)
        .counter_len(8)
        .white_sigma_ui(FIG5_SIGMA)
        .drift(FIG5_DRIFT_MEAN, FIG5_DRIFT_DEV)
        .build()
        .expect("sweep config");
    let ppm = vec![2000.0, 2040.0, 2080.0, 2120.0];
    let sweep_drift_points = ppm.len();
    let sweep_spec = SweepSpec::new(sweep_config)
        .axis(SweepAxis::DriftPpm(ppm))
        .solver(SolverChoice::Multigrid)
        .tol(1e-10);
    let sweep = run(&sweep_spec).expect("drift sweep");
    let cache_kind = |kind: &str| {
        sweep
            .cache
            .by_kind
            .get(kind)
            .map_or((0, 0), |s| (s.hits, s.misses))
    };
    let (mg_level_hits, mg_level_misses) = cache_kind("mg.level");
    let (mg_plan_hits, mg_plan_misses) = cache_kind("mg.plan");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"stochcdr-bench-snapshot/1\",");
    let _ = writeln!(json, "  \"refinement\": {refinement},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"hw_threads\": {},", par::available());
    let _ = writeln!(json, "  \"states\": {},", chain.state_count());
    let _ = writeln!(json, "  \"nnz\": {},", chain.nnz());
    let _ = writeln!(json, "  \"solver\": \"{}\",", analysis.solver_name);
    let _ = writeln!(json, "  \"cycles\": {},", analysis.iterations);
    let _ = writeln!(
        json,
        "  \"cycle_equivalents\": {:e},",
        analysis.mg_cycle_equivalents.unwrap_or(f64::NAN)
    );
    let _ = writeln!(json, "  \"residual\": {:e},", analysis.residual);
    let _ = writeln!(json, "  \"accel_solver\": \"{}\",", accel.solver_name);
    let _ = writeln!(json, "  \"accel_cycles\": {},", accel.iterations);
    let _ = writeln!(
        json,
        "  \"accel_cycle_equivalents\": {:e},",
        accel.mg_cycle_equivalents.unwrap_or(f64::NAN)
    );
    let _ = writeln!(json, "  \"accel_residual\": {:e},", accel.residual);
    let _ = writeln!(json, "  \"ber\": {:e},", analysis.ber);
    let _ = writeln!(json, "  \"mc_symbols\": {symbols},");
    let _ = writeln!(json, "  \"mc_ber\": {:e},", mc.ber);
    let _ = writeln!(json, "  \"mc_cycle_slips\": {},", mc.cycle_slips);
    let _ = writeln!(json, "  \"spmv_large_states\": {},", large.state_count());
    let _ = writeln!(json, "  \"spmv_large_nnz\": {},", large.nnz());
    let _ = writeln!(json, "  \"sweep_drift_points\": {sweep_drift_points},");
    let _ = writeln!(json, "  \"sweep_mg_level_hits\": {mg_level_hits},");
    let _ = writeln!(json, "  \"sweep_mg_level_misses\": {mg_level_misses},");
    let _ = writeln!(json, "  \"sweep_mg_plan_hits\": {mg_plan_hits},");
    let _ = writeln!(json, "  \"sweep_mg_plan_misses\": {mg_plan_misses},");
    let _ = writeln!(json, "  \"mem_form_alloc_count\": {mem_form_alloc_count},");
    let _ = writeln!(json, "  \"mem_solve_alloc_count\": {mem_solve_alloc_count}");
    json.push_str("}\n");

    // Self-check: the snapshot must parse back.
    obs::json::Json::parse(&json).expect("snapshot serializes to valid JSON");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!(
        "wrote {out_path}: {} states, {} cycles (accel {} = {:.2} eq), BER {:.3e} at \
         {threads} threads",
        chain.state_count(),
        analysis.iterations,
        accel.iterations,
        accel.mg_cycle_equivalents.unwrap_or(f64::NAN),
        analysis.ber,
    );
}
