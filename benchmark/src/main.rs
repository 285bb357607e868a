//! The stochcdr benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload design_points|fig5_sweep|product_2lane \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a readable table, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`.

mod check;
mod gen;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Report;
use workloads::Args;

/// Allocation accounting for the `*.alloc_bytes` metrics — the same
/// allocator wrapper the CLI installs.
#[global_allocator]
static GLOBAL: stochcdr_obs::mem::TrackingAlloc = stochcdr_obs::mem::TrackingAlloc::new();

const WORKLOADS: &[&str] = &["design_points", "fig5_sweep", "product_2lane"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
    };
    let mut r = Report::new(cli.trace);
    let outcome = match cli.workload.as_str() {
        "design_points" => workloads::design_points(&args, &mut r),
        "fig5_sweep" => workloads::fig5_sweep(&args, &mut r),
        _ => workloads::product_2lane(&args, &mut r),
    };
    if let Err(e) = outcome {
        eprintln!("error: {} set-up failed: {e}", cli.workload);
        std::process::exit(1);
    }
    let kind = if cli.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    print!(
        "{}",
        r.render_table(&format!(
            "{} seed {} — {kind}, {} hardware threads",
            cli.workload,
            cli.seed,
            stochcdr_linalg::par::available()
        ))
    );
    println!("{}", r.render_json());
}
