//! **Benchmark regression gate** — compares two `bench_snapshot` JSON
//! files and fails when any *deterministic* metric moved.
//!
//! The determinism contract makes this gate sharp: state count, TPM
//! nonzeros, solver cycles and cycle-equivalents (reference and
//! accelerated solves), residual, BER, and the Monte-Carlo results
//! are bit-identical across machines and thread counts, so any drift is
//! a real behavior change, not noise. Wall-clock performance is the
//! repository benchmark's job (`benchmark/`), not this gate's.
//!
//! Usage: `bench_gate BASELINE.json FRESH.json` — exits 1 on a
//! deterministic mismatch, 2 on unreadable/invalid input.
//!
//! **Par-gate mode**: `bench_gate --par-gate SNAP.json... [--report PATH]`
//! takes one or more `--spmv-only` snapshots (repetitions of the same
//! probe), picks the best `spmv_large_speedup`, and fails (exit 1) when
//! it falls below a threshold. The threshold is `STOCHCDR_PAR_GATE_MIN`
//! when set; otherwise it is tiered by the recorded `hw_threads`, because
//! a parallel speedup is only measurable when the hardware has cores to
//! run on: ≥4 hw threads → 2.0, 2–3 → 1.2, 1 → 0.9 (on a single core the
//! pool must merely not *lose* to serial beyond scheduling noise).

use std::fmt::Write as _;

use stochcdr_obs::json::Json;

/// Metrics that must match exactly between snapshots.
const EXACT: &[&str] = &[
    "states",
    "nnz",
    "cycles",
    // Cycle-equivalents — fine-grid work in units of one V-cycle — for
    // both the fixed-V reference solve and the adaptive + Krylov
    // accelerated solve. Pure functions of the hierarchy pattern and the
    // residual-history-driven controller decisions, never of timing, so
    // they gate exactly: a drift means the cycle controller or the
    // extrapolation accept/reject logic changed behavior.
    "cycle_equivalents",
    "accel_cycles",
    "accel_cycle_equivalents",
    "accel_residual",
    "residual",
    "ber",
    "mc_symbols",
    "mc_ber",
    "mc_cycle_slips",
    "spmv_large_states",
    "spmv_large_nnz",
    "sweep_drift_points",
    "sweep_mg_level_hits",
    "sweep_mg_level_misses",
    "sweep_mg_plan_hits",
    "sweep_mg_plan_misses",
    // Main-thread allocation counts of the uninstrumented build and
    // solve: a pure function of configuration and thread count, so an
    // unexplained change means an allocation crept into (or left) a
    // kernel.
    "mem_form_alloc_count",
    "mem_solve_alloc_count",
];

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read '{path}': {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: '{path}' is not valid JSON: {e}");
        std::process::exit(2);
    });
    match doc.get("schema").and_then(Json::as_str) {
        Some("stochcdr-bench-snapshot/1") => doc,
        other => {
            eprintln!("bench_gate: '{path}' has unexpected schema {other:?}");
            std::process::exit(2);
        }
    }
}

/// One `--spmv-only` repetition, as read from its snapshot.
struct ParRep {
    path: String,
    threads: f64,
    hw_threads: f64,
    nnz: f64,
    secs_1t: f64,
    secs_nt: f64,
    speedup: f64,
}

fn par_field(doc: &Json, path: &str, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
        eprintln!("bench_gate: '{path}' is missing numeric field '{key}'");
        std::process::exit(2);
    })
}

/// Threshold the best-of-N speedup must clear. `STOCHCDR_PAR_GATE_MIN`
/// always wins; otherwise tier by how many hardware threads the probe
/// machine actually had — demanding a 2x speedup from one core gates on
/// the weather, not the code.
fn par_threshold(hw_threads: f64) -> (f64, &'static str) {
    if let Ok(v) = std::env::var("STOCHCDR_PAR_GATE_MIN") {
        let min = v.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("bench_gate: STOCHCDR_PAR_GATE_MIN='{v}' is not a number");
            std::process::exit(2);
        });
        return (min, "STOCHCDR_PAR_GATE_MIN");
    }
    if hw_threads >= 4.0 {
        (2.0, "hw_threads >= 4")
    } else if hw_threads >= 2.0 {
        (1.2, "hw_threads in 2..4")
    } else {
        (0.9, "hw_threads == 1 (pool must not lose to serial)")
    }
}

/// `--par-gate` mode: best-of-N speedup check over `--spmv-only` reps.
fn par_gate(paths: &[String], report_path: Option<&str>) -> ! {
    if paths.is_empty() {
        eprintln!("usage: bench_gate --par-gate SNAP.json... [--report PATH]");
        std::process::exit(2);
    }
    let reps: Vec<ParRep> = paths
        .iter()
        .map(|p| {
            let doc = load(p);
            ParRep {
                path: p.clone(),
                threads: par_field(&doc, p, "threads"),
                hw_threads: par_field(&doc, p, "hw_threads"),
                nnz: par_field(&doc, p, "spmv_large_nnz"),
                secs_1t: par_field(&doc, p, "spmv_large_1t_secs"),
                secs_nt: par_field(&doc, p, "spmv_large_nt_secs"),
                speedup: par_field(&doc, p, "spmv_large_speedup"),
            }
        })
        .collect();
    // Repetitions must measure the same experiment: same pool size, same
    // operator, same machine. Anything else is a harness bug, not a
    // performance regression.
    let first = &reps[0];
    for r in &reps[1..] {
        if r.threads != first.threads || r.nnz != first.nnz || r.hw_threads != first.hw_threads {
            eprintln!(
                "bench_gate: inconsistent reps: '{}' ({} threads, {} hw, nnz {}) vs '{}' ({} threads, {} hw, nnz {})",
                first.path, first.threads, first.hw_threads, first.nnz,
                r.path, r.threads, r.hw_threads, r.nnz,
            );
            std::process::exit(2);
        }
    }
    let (min, source) = par_threshold(first.hw_threads);
    let best = reps.iter().fold(f64::NEG_INFINITY, |m, r| m.max(r.speedup));

    let mut report = String::new();
    let _ = writeln!(
        report,
        "par gate: spmv_large at {} threads ({} hw), {} rep(s)",
        first.threads,
        first.hw_threads,
        reps.len()
    );
    for r in &reps {
        let _ = writeln!(
            report,
            "  rep {:<28} 1t {:.3e}s  {}t {:.3e}s  x{:.3}",
            r.path, r.secs_1t, r.threads, r.secs_nt, r.speedup
        );
    }
    let _ = writeln!(
        report,
        "  best speedup x{best:.3}, threshold x{min} ({source})"
    );
    let verdict = if best >= min {
        format!("par_gate: PASS (x{best:.3} >= x{min})")
    } else {
        format!("par_gate: FAIL (best x{best:.3} < required x{min})")
    };
    let _ = writeln!(report, "{verdict}");
    print!("{report}");
    if let Some(path) = report_path {
        std::fs::write(path, &report).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot write report '{path}': {e}");
            std::process::exit(2);
        });
    }
    std::process::exit(if best >= min { 0 } else { 1 });
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--par-gate") {
        args.remove(0);
        let report = args.iter().position(|a| a == "--report").map(|i| {
            if i + 1 >= args.len() {
                eprintln!("bench_gate: --report needs a path");
                std::process::exit(2);
            }
            let path = args.remove(i + 1);
            args.remove(i);
            path
        });
        par_gate(&args, report.as_deref());
    }
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!(
            "usage: bench_gate BASELINE.json FRESH.json\n       bench_gate --par-gate SNAP.json... [--report PATH]"
        );
        std::process::exit(2);
    };
    let baseline = load(baseline_path);
    let fresh = load(fresh_path);

    let mut failures = 0usize;
    println!("bench gate: {baseline_path} (baseline) vs {fresh_path} (fresh)");
    // Resolved paths, so a CI log is self-describing about *what* was
    // gated.
    let resolved = |p: &str| {
        std::fs::canonicalize(p)
            .map(|c| c.display().to_string())
            .unwrap_or_else(|_| p.to_string())
    };
    println!(
        "  baseline file : {}\n  fresh file    : {}",
        resolved(baseline_path),
        resolved(fresh_path),
    );

    // String-valued deterministic fields.
    for key in ["solver", "accel_solver"] {
        let b_solver = baseline.get(key).and_then(Json::as_str);
        let f_solver = fresh.get(key).and_then(Json::as_str);
        if b_solver == f_solver {
            println!("  ok    {key:<15} = {}", f_solver.unwrap_or("?"));
        } else {
            println!("  FAIL  {key:<15} : {b_solver:?} -> {f_solver:?}");
            failures += 1;
        }
    }

    for key in EXACT {
        let b = baseline.get(key).and_then(Json::as_f64);
        let f = fresh.get(key).and_then(Json::as_f64);
        match (b, f) {
            (Some(b), Some(f)) if b == f => println!("  ok    {key:<15} = {f:e}"),
            _ => {
                println!("  FAIL  {key:<15} : {b:?} -> {f:?}");
                failures += 1;
            }
        }
    }

    let b_threads = baseline.get("threads").and_then(Json::as_f64);
    let f_threads = fresh.get("threads").and_then(Json::as_f64);
    if b_threads != f_threads {
        // Not a failure: the determinism contract covers every gated
        // metric at any pool size.
        println!("  note  threads         : {b_threads:?} -> {f_threads:?}");
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} deterministic metric(s) drifted");
        std::process::exit(1);
    }
    println!("bench_gate: PASS (all deterministic metrics identical)");
}
