//! Exit-code contract of the `bench_gate` binary: 0 when every gated
//! field matches, 1 on a drifted, missing or renamed deterministic field
//! (or a par-gate speedup under its threshold), 2 on input that is not a
//! usable snapshot.

use std::path::PathBuf;
use std::process::{Command, Output};

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/BENCH_AFTER_PR10_T4.json"
);

fn baseline_text() -> String {
    std::fs::read_to_string(BASELINE).expect("committed gate baseline")
}

/// Writes `text` to a per-test file under the integration-test temp dir.
fn temp_file(name: &str, text: &str) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), name].iter().collect();
    std::fs::write(&path, text).expect("write temp snapshot");
    path.display().to_string()
}

fn gate(args: &[&str], par_min: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_gate"));
    cmd.args(args).env_remove("STOCHCDR_PAR_GATE_MIN");
    if let Some(min) = par_min {
        cmd.env("STOCHCDR_PAR_GATE_MIN", min);
    }
    cmd.output().expect("run bench_gate")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A copy of the baseline with one exact substring replaced.
fn edited(from: &str, to: &str) -> String {
    let text = baseline_text();
    assert!(text.contains(from), "baseline has no {from:?}");
    text.replacen(from, to, 1)
}

#[test]
fn baseline_against_itself_passes() {
    let out = gate(&[BASELINE, BASELINE], None);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("bench_gate: PASS"));
}

#[test]
fn drifted_exact_field_fails_and_is_named() {
    let fresh = temp_file(
        "gate_cycles.json",
        &edited("\"cycles\": 31,", "\"cycles\": 32,"),
    );
    let out = gate(&[BASELINE, &fresh], None);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("FAIL  cycles "), "{text}");
    // Only the edited field fails.
    assert_eq!(text.matches("FAIL").count(), 1, "{text}");
}

#[test]
fn missing_exact_field_fails() {
    let text: String = baseline_text()
        .lines()
        .filter(|l| !l.contains("\"mc_ber\""))
        .map(|l| format!("{l}\n"))
        .collect();
    let fresh = temp_file("gate_no_mc_ber.json", &text);
    let out = gate(&[BASELINE, &fresh], None);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("FAIL  mc_ber "));
}

#[test]
fn changed_solver_string_fails() {
    let fresh = temp_file(
        "gate_accel_solver.json",
        &edited("\"multigrid-krylov\"", "\"multigrid-adaptive\""),
    );
    let out = gate(&[BASELINE, &fresh], None);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("FAIL  accel_solver"));
}

#[test]
fn foreign_schema_is_an_input_error() {
    let fresh = temp_file(
        "gate_schema.json",
        &edited("stochcdr-bench-snapshot/1", "stochcdr-obs/4"),
    );
    let out = gate(&[BASELINE, &fresh], None);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
}

/// A synthetic `bench_snapshot --spmv-only` repetition.
fn spmv_rep(name: &str, threads: u32, speedup: f64) -> String {
    temp_file(
        name,
        &format!(
            "{{\n  \"schema\": \"stochcdr-bench-snapshot/1\",\n  \"spmv_only\": true,\n  \
             \"threads\": {threads},\n  \"hw_threads\": 2,\n  \"spmv_large_states\": 16149,\n  \
             \"spmv_large_nnz\": 544710,\n  \"spmv_large_1t_secs\": 1e-3,\n  \
             \"spmv_large_nt_secs\": {:e},\n  \"spmv_large_speedup\": {speedup:.3}\n}}\n",
            1e-3 / speedup
        ),
    )
}

#[test]
fn par_gate_checks_best_speedup_against_threshold() {
    let a = spmv_rep("par_rep_a.json", 4, 1.1);
    let b = spmv_rep("par_rep_b.json", 4, 1.5);
    // Best of the two reps is x1.5.
    let out = gate(&["--par-gate", &a, &b], Some("1.4"));
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("par_gate: PASS"));
    let out = gate(&["--par-gate", &a, &b], Some("1.6"));
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("par_gate: FAIL"));
}

#[test]
fn par_gate_rejects_reps_of_different_experiments() {
    let a = spmv_rep("par_rep_t4.json", 4, 1.5);
    let b = spmv_rep("par_rep_t2.json", 2, 1.5);
    let out = gate(&["--par-gate", &a, &b], Some("1.0"));
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
}
