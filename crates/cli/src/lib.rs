//! Library backing the `stochcdr` command-line tool.
//!
//! The CLI wraps the workspace's analyses behind flag-driven subcommands so
//! a designer can evaluate a CDR configuration without writing Rust:
//!
//! ```text
//! stochcdr analyze  --sigma-nw 0.05 --drift-mean 2e-3 --counter 8
//! stochcdr sweep    --knob counter --values 4,8,16
//! stochcdr bathtub  --points 21
//! stochcdr slip
//! stochcdr acquire  --horizon 1000
//! stochcdr jitter   --max-lag 200
//! stochcdr spy      --size 64
//! stochcdr report   --in metrics.jsonl
//! stochcdr diff     --baseline a.jsonl --fresh b.jsonl
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy keeps
//! external crates to `rand`/`proptest`/`criterion`); the grammar is plain
//! `--flag value` pairs after a subcommand.

pub mod args;
pub mod commands;

pub use args::{CliError, MetricsFormat, Options, ParsedArgs};

use stochcdr_obs as obs;

/// Entry point shared by `main` and the tests: parses, dispatches, and
/// returns the text that should be printed.
///
/// With `--metrics PATH` the instrumentation layer is enabled for the
/// duration of the command: `--metrics-format jsonl` streams records to
/// `PATH` as they happen; the default `summary` format aggregates them
/// and writes a rendered table to `PATH` afterwards. `--trace PATH`
/// additionally (or independently) streams a Chrome Trace Event file —
/// both can be active at once through a fan-out sink.
///
/// `--profile-folded PATH` runs the wall-clock sampling profiler for
/// the duration of the command and writes folded stacks (one
/// `stack count` line each, loadable by flamegraph.pl or speedscope)
/// to `PATH`; `--progress` arms live heartbeat updates. Both default
/// off and leave the solve bit-identical when unused.
///
/// # Errors
///
/// Returns [`CliError`] for unknown subcommands/flags, malformed values,
/// or analysis failures (each rendered with a usage hint).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let parsed = args::parse(argv)?;
    // `--threads N` overrides the STOCHCDR_THREADS env var; 0 = auto. Set
    // (or cleared) every run so a previous invocation's count never leaks.
    let threads = parsed.options.threads;
    stochcdr_linalg::par::set_threads((threads > 0).then_some(threads));
    // `--mem-budget` (re)publishes the soft live-heap budget every run so
    // a previous invocation's budget never leaks into this one.
    obs::mem::set_budget(parsed.options.mem_budget);
    // `--progress` (re)arms the heartbeat every run, including the
    // disarmed default, so a previous invocation's interval never leaks.
    obs::heartbeat::configure(
        parsed
            .options
            .progress
            .map(std::time::Duration::from_secs_f64),
        parsed.options.progress.is_some(),
    );
    let result = run_with_obs(&parsed);
    obs::heartbeat::configure(None, false);
    result
}

/// The body of [`run`] after the per-run knobs are set: decides
/// whether the observability facade is needed, installs the sinks, runs
/// the profiler around the dispatch, and tears everything down again.
fn run_with_obs(parsed: &ParsedArgs) -> Result<String, CliError> {
    let metrics = parsed.options.metrics.clone();
    let trace = parsed.options.trace.clone();
    let profile_folded = parsed.options.profile_folded.clone();
    if metrics.is_none() && trace.is_none() && profile_folded.is_none() {
        // `--progress` alone needs no sink: the one-line status goes to
        // stderr directly and the events land on the disabled facade.
        return commands::dispatch(parsed);
    }

    let mut sinks: Vec<Box<dyn obs::Sink>> = Vec::new();
    if let Some(path) = &trace {
        let sink = obs::ChromeTraceSink::to_file(path)
            .map_err(|e| CliError::Analysis(format!("cannot open trace file '{path}': {e}")))?;
        sinks.push(Box::new(sink));
    }
    let summary_path = match (&metrics, parsed.options.metrics_format) {
        (Some(path), MetricsFormat::Jsonl) => {
            let sink = obs::JsonLinesSink::to_file(path).map_err(|e| {
                CliError::Analysis(format!("cannot open metrics file '{path}': {e}"))
            })?;
            sinks.push(Box::new(sink));
            None
        }
        (Some(path), MetricsFormat::Summary) => {
            sinks.push(Box::new(obs::SummarySink::new()));
            Some(path.clone())
        }
        (None, _) => None,
    };
    // `--profile-folded` without any other destination still needs the
    // facade enabled — span paths register only while a recorder is
    // installed — so a NullSink absorbs the records themselves.
    if sinks.is_empty() {
        sinks.push(Box::new(obs::NullSink));
    }
    let single = sinks.len() == 1;
    if single {
        obs::install(sinks.pop().expect("one sink"));
    } else {
        obs::install(Box::new(obs::MultiSink::new(sinks)));
    }

    obs::gauge("cli.threads", stochcdr_linalg::par::threads() as f64);
    let profiling = profile_folded.is_some()
        && obs::profile::start(std::time::Duration::from_secs_f64(
            parsed.options.profile_interval_ms / 1e3,
        ));
    let result = commands::dispatch(parsed);
    // Stop sampling before the teardown gauges so the profiler never
    // attributes samples to the facade's own bookkeeping; publish the
    // folded stacks into the artifact while the sink is still attached.
    let folded = if profiling {
        obs::profile::stop().map(|p| {
            p.publish();
            p.folded()
        })
    } else {
        None
    };
    // Memory gauges (live/peak heap, allocation count, peak RSS) describe
    // the whole command; publish them right before the sink detaches.
    obs::mem::publish();
    // Uninstall even on dispatch failure so the global recorder never
    // outlives the command that enabled it.
    let sink = obs::uninstall();
    if let Some(path) = summary_path {
        if let Some(report) = sink.and_then(|mut s| s.finish()) {
            std::fs::write(&path, report).map_err(|e| {
                CliError::Analysis(format!("cannot write metrics file '{path}': {e}"))
            })?;
        }
    }
    if let (Some(path), Some(text)) = (&profile_folded, folded) {
        std::fs::write(path, text).map_err(|e| {
            CliError::Analysis(format!("cannot write folded profile '{path}': {e}"))
        })?;
    }
    result
}
