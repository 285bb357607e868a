//! The three workloads, each in an untraced form (end-to-end metrics) and
//! a traced form (per-layer metrics). Both forms call only public
//! functions of the program; the traced form splits each operation into
//! the layer calls it is made of and wraps each in a span.

use std::time::{Duration, Instant};

use stochcdr::analysis::DEFAULT_TOL;
use stochcdr::cycle_slip::mean_time_between_slips;
use stochcdr::{
    AssemblyFactors, CdrAnalysis, CdrChain, CdrConfig, CdrModel, ProductChain, SolverChoice,
    StationarySolver,
};
use stochcdr_linalg::par;
use stochcdr_markov::ImplicitStochastic;
use stochcdr_multigrid::MultigridStats;
use stochcdr_obs as obs;
use stochcdr_sweep::{run_map, FactorCache, SweepSpec};

use crate::check;
use crate::gen;
use crate::probes::{self, PRODUCT_TOL};
use crate::report::Report;
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::trace::Tracer;

/// Set-up is repeated at least this many times, and for at least
/// [`SETUP_MIN_SECS`], per run; `setup_s` is the median. The time floor
/// spreads the repetitions over seconds of host time, so one slow second
/// of a shared host moves the median less, and gives the sub-millisecond
/// product set-up thousands of repetitions.
const SETUP_REPS: usize = 15;
const SETUP_MIN_SECS: f64 = 3.0;
/// Design points generated per run — more than any window can use.
const DESIGN_POOL: usize = 2048;
/// Design points up to this many states are cross-checked against GTH.
const DIRECT_MAX_STATES: usize = 4096;
/// At most this many direct cross-checks per run (≈1.2 s each).
const DIRECT_CHECKS: usize = 3;
/// Relative agreement required between multigrid and GTH measures.
const DIRECT_RTOL: f64 = 1e-6;
/// Residual tolerance of the product solve.
const PRODUCT_SOLVE_TOL: f64 = 1e-10;
/// Largest allowed `‖π − π_a ⊗ π_b‖₁` on the product, with the lanes
/// solved by GTH. The solve stops at an L1 residual of 1e-10 and leaves
/// about 8e-11 here; the bound allows a factor of 100 for the chain's
/// conditioning.
const KRON_TOL: f64 = 1e-8;
/// Operations of the traced run: fixed, so counts repeat exactly.
const TRACE_POINTS: usize = 24;
const TRACE_SWEEPS: usize = 2;

const ASSEMBLY: &[&str] = &["assembly.factors", "assembly.build"];
const MG_SETUP: &[&str] = &["mg.hierarchy", "mg.prepare"];
const MG_SOLVE: &[&str] = &["mg.solve"];
const MEASURES: &[&str] = &["measures.analysis", "measures.mtbs"];
const VIEW: &[&str] = &["markov.view"];

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Closed-loop pacing: the next operation starts only while the window
/// still has room for one of median length (always at least one).
struct Window {
    seconds: f64,
    busy: f64,
    lat: Vec<f64>,
}

impl Window {
    fn new(seconds: f64) -> Self {
        Window {
            seconds,
            busy: 0.0,
            lat: Vec::new(),
        }
    }

    fn room(&self) -> bool {
        self.lat.is_empty() || self.busy + median(&self.lat) <= self.seconds
    }

    fn record(&mut self, secs: f64) {
        self.busy += secs;
        self.lat.push(secs);
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_SECS`], and returns the median wall time.
fn time_setup(mut setup: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut t = Vec::with_capacity(SETUP_REPS);
    while t.len() < SETUP_REPS || t.iter().sum::<f64>() < SETUP_MIN_SECS {
        let t0 = Instant::now();
        setup()?;
        t.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&t))
}

/// Records `peak_rss_mib`, with the live-heap high-water mark beside it.
fn set_peak_rss(r: &mut Report) {
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    r.set("peak_rss_mib", mib(obs::mem::peak_rss_bytes()));
    r.note(format!(
        "peak live heap (tracking allocator): {:.1} MiB",
        mib(obs::mem::peak_bytes())
    ));
}

/// Latency metrics shared by every workload, plus their sample notes.
fn set_latency(r: &mut Report, what: &str, lat: &[f64]) {
    r.set("point_p50_s", median(lat));
    r.set("point_p90_s", percentile(lat, 90.0));
    let tail = match tail_percentile(lat) {
        Some((q, v)) => format!("p{q} = {v:.4e} s"),
        None => "no percentile has ten samples beyond it".into(),
    };
    r.note(format!("{what}: {} samples; {tail}", lat.len()));
}

/// BER and MTBS are usable measures.
fn measures_ok(ber: f64, mtbs: f64) -> Res<()> {
    if !(ber.is_finite() && (0.0..=0.5).contains(&ber)) {
        return Err(format!("BER {ber:e} out of range"));
    }
    if !(mtbs.is_finite() && mtbs > 0.0) {
        return Err(format!("MTBS {mtbs:e} out of range"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// design_points
// ---------------------------------------------------------------------------

/// One design point, the way a designer asks it: build → analyze → MTBS.
/// Returns the chain, the analysis, the MTBS and the seconds spent in
/// `analyze`.
fn design_point(cfg: &CdrConfig) -> stochcdr::Result<(CdrChain, CdrAnalysis, f64, f64)> {
    let chain = CdrModel::new(cfg.clone()).build_chain()?;
    let t0 = Instant::now();
    let a = chain.analyze(SolverChoice::Multigrid)?;
    let solve = t0.elapsed().as_secs_f64();
    let mtbs = mean_time_between_slips(&chain, &a.stationary)?;
    Ok((chain, a, mtbs, solve))
}

/// [`design_point`] split into its layer calls, each in a span. Same
/// calls, same order, same bits as `build_chain` + `analyze`.
fn design_point_traced(
    t: &mut Tracer,
    cfg: &CdrConfig,
) -> stochcdr::Result<(CdrChain, CdrAnalysis, f64, MultigridStats)> {
    t.next_op();
    t.span("op", |t| {
        let factors = t.span("assembly.factors", |_| AssemblyFactors::compute(cfg));
        let chain = t.span("assembly.build", |_| {
            CdrModel::new(cfg.clone()).build_chain_with(&factors)
        })?;
        let solver = t.span("mg.hierarchy", |_| {
            chain.multigrid_solver(
                SolverChoice::Multigrid,
                DEFAULT_TOL,
                chain.phase_hierarchy(),
                None,
            )
        });
        let mut h = t.span("mg.prepare", |_| solver.prepare(chain.tpm()))?;
        let t0 = Instant::now();
        let (res, stats) = t.span("mg.solve", |_| {
            solver.solve_prepared(chain.tpm(), &mut h, None)
        })?;
        let solve_time = t0.elapsed();
        let (iterations, residual) = (res.iterations(), res.residual());
        let a = t.span("measures.analysis", |_| {
            chain.analysis_from_stationary(
                res.distribution,
                iterations,
                residual,
                solve_time,
                solver.name(),
            )
        });
        let mtbs = t.span("measures.mtbs", |_| {
            mean_time_between_slips(&chain, &a.stationary)
        })?;
        Ok((chain, a, mtbs, stats))
    })
}

fn warm_up() -> Res<()> {
    let cfg = gen::reference_point().config().map_err(err)?;
    design_point(&cfg).map(drop).map_err(err)
}

/// Bits of an operation's answer, for exact repeat comparisons.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    ber: u64,
    mtbs: u64,
    iterations: usize,
}

impl Answer {
    fn new(ber: f64, mtbs: f64, iterations: usize) -> Self {
        Answer {
            ber: ber.to_bits(),
            mtbs: mtbs.to_bits(),
            iterations,
        }
    }
}

pub fn design_points(args: &Args, r: &mut Report) -> Res<()> {
    par::set_threads(Some(1));
    let mut configs = Vec::new();
    let setup = time_setup(|| {
        par::prewarm();
        configs = gen::design_points(args.seed, DESIGN_POOL)
            .iter()
            .map(gen::DesignPoint::config)
            .collect::<stochcdr::Result<Vec<_>>>()
            .map_err(err)?;
        warm_up()
    })?;
    r.set("setup_s", setup);
    if r.trace() {
        return design_points_traced(args, r, &configs[..TRACE_POINTS]);
    }

    let mut w = Window::new(args.seconds);
    let mut solve = Vec::new();
    let mut direct = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        if !w.room() {
            break;
        }
        r.attempted += 1;
        let t0 = Instant::now();
        let out = design_point(cfg);
        w.record(t0.elapsed().as_secs_f64());
        let (chain, a, mtbs, solve_s) = match out {
            Ok(o) => o,
            Err(e) => {
                r.fail(format!("design point {i}: {e}"));
                continue;
            }
        };
        solve.push(solve_s);
        let checked = check::stationary(chain.tpm(), &a.stationary, DEFAULT_TOL)
            .and_then(|()| measures_ok(a.ber, mtbs));
        match checked {
            Err(e) => r.fail(format!("design point {i}: {e}")),
            Ok(()) if chain.state_count() <= DIRECT_MAX_STATES && direct.len() < DIRECT_CHECKS => {
                direct.push((i, chain, a.ber, mtbs));
            }
            Ok(()) => {}
        }
    }
    if r.attempted as usize == configs.len() {
        r.note("the generated point stream ran out before the window closed");
    }
    set_latency(r, "design points", &w.lat);
    r.set("points_per_s", w.lat.len() as f64 / w.busy);
    r.set("product_solve_s", median(&solve));
    set_peak_rss(r);

    // Cross-check against GTH, outside the window.
    for (i, chain, ber, mtbs) in &direct {
        let checked = chain
            .analyze(SolverChoice::Direct)
            .and_then(|d| Ok((d.ber, mean_time_between_slips(chain, &d.stationary)?)))
            .map_err(err)
            .and_then(|(d_ber, d_mtbs)| {
                let (eb, em) = (check::rel_diff(*ber, d_ber), check::rel_diff(*mtbs, d_mtbs));
                if eb <= DIRECT_RTOL && em <= DIRECT_RTOL {
                    Ok(())
                } else {
                    Err(format!(
                        "BER off GTH by {eb:.1e}, MTBS by {em:.1e} (relative)"
                    ))
                }
            });
        r.check(checked.is_ok(), || format!("design point {i}: {checked:?}"));
    }
    r.note(format!(
        "{} of the points up to {DIRECT_MAX_STATES} states cross-checked against GTH",
        direct.len()
    ));
    Ok(())
}

fn design_points_traced(args: &Args, r: &mut Report, ops: &[CdrConfig]) -> Res<()> {
    let t0 = Instant::now();
    let plain: Vec<Option<Answer>> = ops
        .iter()
        .map(|c| {
            design_point(c)
                .ok()
                .map(|(_, a, mtbs, _)| Answer::new(a.ber, mtbs, a.iterations))
        })
        .collect();
    let plain_s = t0.elapsed().as_secs_f64();

    let mut t = Tracer::new();
    let mut stats = Vec::new();
    let mut nnz = Vec::new();
    let mut traced_s = 0.0;
    for (i, (cfg, want)) in ops.iter().zip(&plain).enumerate() {
        r.attempted += 1;
        let t0 = Instant::now();
        let out = design_point_traced(&mut t, cfg);
        traced_s += t0.elapsed().as_secs_f64();
        let (chain, a, mtbs, st) = match out {
            Ok(o) => o,
            Err(e) => {
                r.fail(format!("traced design point {i}: {e}"));
                continue;
            }
        };
        let same = want.as_ref() == Some(&Answer::new(a.ber, mtbs, a.iterations));
        let checked = check::stationary(chain.tpm(), &a.stationary, DEFAULT_TOL);
        r.check(same && checked.is_ok(), || {
            format!("traced design point {i}: same bits as untraced {same}, check {checked:?}")
        });
        nnz.push(chain.nnz() as f64);
        stats.push(st);
    }
    r.set("trace.overhead_ratio", traced_s / plain_s);
    r.note(format!(
        "trace: {} points untraced {plain_s:.3} s, traced {traced_s:.3} s",
        ops.len()
    ));
    set_layers(r, &t, &stats, &nnz);
    let product = build_product(args.seed)?;
    kernel_and_stream_probes(r, &product, args.seed);
    Ok(())
}

/// Per-layer metrics from a traced pass: medians over operations of each
/// layer's self time, plus the solver's own phase split.
fn set_layers(r: &mut Report, t: &Tracer, stats: &[MultigridStats], nnz: &[f64]) {
    for line in t.summary() {
        r.note(line);
    }
    let assembly = t.self_secs(ASSEMBLY);
    r.set("assembly.build_s", median(&assembly));
    let assembly_total: f64 = assembly.iter().sum();
    if assembly_total > 0.0 {
        r.set(
            "assembly.nnz_per_s",
            nnz.iter().sum::<f64>() / assembly_total,
        );
    }
    r.set("assembly.alloc_bytes", median(&t.alloc_bytes(ASSEMBLY)));
    r.set("mg.setup_s", median(&t.self_secs(MG_SETUP)));
    r.set("mg.setup_alloc_bytes", median(&t.alloc_bytes(MG_SETUP)));
    r.set("mg.cycle_s", median(&t.self_secs(MG_SOLVE)));
    let per = |f: fn(&MultigridStats) -> f64| stats.iter().map(f).collect::<Vec<f64>>();
    r.set("mg.cycles", mean(&per(|s| s.residual_history.len() as f64)));
    r.set("mg.cycle_equivalents", mean(&per(|s| s.cycle_equivalents)));
    r.set("mg.refresh_s", median(&per(|s| s.phases.aggregate_secs)));
    r.set("mg.smooth_s", median(&per(|s| s.phases.smooth_secs)));
    r.set("mg.coarse_s", median(&per(|s| s.phases.coarse_solve_secs)));
    r.set(
        "mg.disaggregate_s",
        median(&per(|s| s.phases.disaggregate_secs)),
    );
    r.set("mg.residual_s", median(&per(|s| s.phases.residual_secs)));
    r.note(
        "mg.refresh_s/smooth_s/coarse_s/disaggregate_s/residual_s are program-reported (MgPhases)",
    );
    if t.spans().iter().any(|s| VIEW.contains(&s.name)) {
        r.set("markov.view_s", median(&t.self_secs(VIEW)));
    }
    if t.spans().iter().any(|s| MEASURES.contains(&s.name)) {
        r.set("measures.s", median(&t.self_secs(MEASURES)));
    }
}

// ---------------------------------------------------------------------------
// fig5_sweep
// ---------------------------------------------------------------------------

/// What the benchmark keeps of one sweep point.
struct SweepOut {
    flat: usize,
    answer: Answer,
    residual: f64,
    warm: bool,
    form_s: f64,
    solve_s: f64,
    measures_s: f64,
    pi: Vec<f64>,
}

/// One sweep over `spec` with a fresh factor cache: the extraction
/// `stochcdr_sweep::run` performs (MTBS per point), plus a copy of π for
/// the residual check.
fn sweep(spec: &SweepSpec) -> (stochcdr::Result<Vec<SweepOut>>, stochcdr_fsm::CacheStats) {
    let cache = FactorCache::new();
    let out = run_map(spec, &cache, &|ctx, chain, a| {
        let t0 = Instant::now();
        let mtbs = mean_time_between_slips(chain, &a.stationary)?;
        let measures_s = t0.elapsed().as_secs_f64();
        Ok(SweepOut {
            flat: ctx.flat,
            answer: Answer::new(a.ber, mtbs, a.iterations),
            residual: a.residual,
            warm: ctx.warm_started,
            form_s: ctx.form_secs,
            solve_s: ctx.solve_secs,
            measures_s,
            pi: a.stationary.clone(),
        })
    });
    (out, cache.stats())
}

/// Compares a repeat sweep against the first, point by point; each
/// differing point is a failed operation.
fn same_sweep(r: &mut Report, what: &str, first: &[SweepOut], again: &[SweepOut]) {
    for (a, b) in first.iter().zip(again) {
        r.check(a.answer == b.answer && a.pi == b.pi, || {
            format!("{what}: point {} differs from the first sweep", b.flat)
        });
    }
}

/// Independent check of one sweep: each point's chain is rebuilt without
/// the cache, and π is checked against it; BER and MTBS are re-derived
/// from π on the rebuilt chain and must match bit for bit.
fn check_sweep(r: &mut Report, spec: &SweepSpec, pts: &[SweepOut]) {
    for p in pts {
        let checked = spec
            .resolve(&spec.index_of(p.flat))
            .and_then(|(cfg, _)| CdrModel::new(cfg).build_chain())
            .map_err(err)
            .and_then(|chain| {
                check::stationary(chain.tpm(), &p.pi, spec.tol)?;
                let re = chain.analysis_from_stationary(
                    p.pi.clone(),
                    0,
                    p.residual,
                    Duration::ZERO,
                    "check",
                );
                let mtbs = mean_time_between_slips(&chain, &p.pi).map_err(err)?;
                measures_ok(re.ber, mtbs)?;
                if Answer::new(re.ber, mtbs, p.answer.iterations) == p.answer {
                    Ok(())
                } else {
                    Err("BER/MTBS differ when re-derived on a fresh chain".into())
                }
            });
        r.check(checked.is_ok(), || {
            format!("sweep point {}: {checked:?}", p.flat)
        });
    }
}

pub fn fig5_sweep(args: &Args, r: &mut Report) -> Res<()> {
    par::set_threads(Some(par::available()));
    let mut spec = None;
    let setup = time_setup(|| {
        par::prewarm();
        spec = Some(gen::fig5_spec(args.seed).map_err(err)?);
        warm_up()
    })?;
    let spec = spec.expect("set-up ran");
    r.set("setup_s", setup);
    let n = spec.points();
    if r.trace() {
        return fig5_traced(args, r, &spec);
    }

    let mut w = Window::new(args.seconds);
    // Per grid point, its latency and solve time in every sweep.
    let (mut point_lat, mut solve) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let mut first: Option<Vec<SweepOut>> = None;
    while w.room() {
        r.attempted += n as u64;
        let t0 = Instant::now();
        let (out, _) = sweep(&spec);
        w.record(t0.elapsed().as_secs_f64());
        let pts = match out {
            Ok(p) => p,
            Err(e) => {
                (0..n).for_each(|_| r.fail(format!("sweep: {e}")));
                continue;
            }
        };
        for p in &pts {
            point_lat[p.flat].push(p.form_s + p.solve_s + p.measures_s);
            solve[p.flat].push(p.solve_s);
        }
        match &first {
            None => first = Some(pts),
            Some(f) => same_sweep(r, "repeat sweep", f, &pts),
        }
    }
    // Every sweep repeats the same grid, so each point's median over the
    // sweeps is its latency; the percentiles are taken over the points.
    // Pooling the samples instead lets the median jump between two
    // neighbouring points' latencies from run to run.
    let per_point = |v: &[Vec<f64>]| v.iter().map(|s| median(s)).collect::<Vec<f64>>();
    set_latency(
        r,
        "sweep points (engine form + solve, plus MTBS; median over sweeps)",
        &per_point(&point_lat),
    );
    let answered: usize = point_lat.iter().map(Vec::len).sum();
    r.set("points_per_s", answered as f64 / w.busy);
    r.set("product_solve_s", median(&per_point(&solve)));
    set_peak_rss(r);
    r.note(format!(
        "{} sweeps of {n} points at {} threads",
        w.lat.len(),
        par::threads()
    ));
    if let Some(f) = &first {
        check_sweep(r, &spec, f);
    }
    Ok(())
}

fn fig5_traced(args: &Args, r: &mut Report, spec: &SweepSpec) -> Res<()> {
    let n = spec.points() as u64;
    let t0 = Instant::now();
    let plain: Vec<_> = (0..TRACE_SWEEPS).map(|_| sweep(spec).0).collect();
    let plain_s = t0.elapsed().as_secs_f64();

    let mut t = Tracer::new();
    let t0 = Instant::now();
    let traced: Vec<_> = (0..TRACE_SWEEPS)
        .map(|_| {
            t.next_op();
            t.span("sweep.run", |_| sweep(spec))
        })
        .collect();
    let traced_s = t0.elapsed().as_secs_f64();
    r.set("trace.overhead_ratio", traced_s / plain_s);
    r.note(format!(
        "trace: {TRACE_SWEEPS} sweeps untraced {plain_s:.3} s, traced {traced_s:.3} s"
    ));

    let mut pts_all: Vec<&SweepOut> = Vec::new();
    let (mut hit_rate, mut plan_hits) = (Vec::new(), Vec::new());
    for (i, ((out, cache), want)) in traced.iter().zip(&plain).enumerate() {
        r.attempted += n;
        match (out, want) {
            (Ok(pts), Ok(want)) => {
                same_sweep(r, "traced sweep", want, pts);
                pts_all.extend(pts);
            }
            (Err(e), _) | (_, Err(e)) => (0..n).for_each(|_| r.fail(format!("sweep {i}: {e}"))),
        }
        hit_rate.push(cache.hit_rate());
        plan_hits.push(cache.by_kind.get("mg.plan").map_or(0, |k| k.hits) as f64);
    }
    let col = |f: fn(&SweepOut) -> f64| pts_all.iter().map(|p| f(p)).collect::<Vec<f64>>();
    r.set("sweep.cache_hit_rate", mean(&hit_rate));
    r.set("sweep.plan_hits", mean(&plan_hits));
    r.set(
        "sweep.warm_share",
        mean(&col(|p| f64::from(u8::from(p.warm)))),
    );
    r.set("sweep.form_s", median(&col(|p| p.form_s)));
    r.set("sweep.solve_s", median(&col(|p| p.solve_s)));
    r.set(
        "sweep.mean_iterations",
        mean(&col(|p| p.answer.iterations as f64)),
    );
    r.set("measures.s", median(&col(|p| p.measures_s)));
    r.note("sweep.* are program-reported (FactorCache::stats, SweepPoint fields); measures.s is timed around mean_time_between_slips");
    if let Some(Ok(first)) = traced.first().map(|t| &t.0) {
        check_sweep(r, spec, first);
    }
    let product = build_product(args.seed)?;
    kernel_and_stream_probes(r, &product, args.seed);
    Ok(())
}

// ---------------------------------------------------------------------------
// product_2lane
// ---------------------------------------------------------------------------

/// Lane assembly, Kronecker composition, and the cached transpose.
fn build_product(seed: u64) -> Res<ProductChain> {
    let lanes = gen::product_lanes(seed)
        .map_err(err)?
        .into_iter()
        .map(|cfg| CdrModel::new(cfg).build_chain())
        .collect::<stochcdr::Result<Vec<_>>>()
        .map_err(err)?;
    let product = ProductChain::new(lanes).map_err(err)?;
    product.operator().transposed();
    Ok(product)
}

/// The product solve split into its layer calls, each in a span — the
/// calls `ProductChain::solve_implicit` makes, in its order, after the
/// set-up calls of [`build_product`].
fn product_traced(t: &mut Tracer, seed: u64) -> Res<(ProductChain, Vec<f64>, MultigridStats)> {
    t.next_op();
    t.span("op", |t| {
        let mut lanes = Vec::new();
        for cfg in gen::product_lanes(seed).map_err(err)? {
            let factors = t.span("assembly.factors", |_| AssemblyFactors::compute(&cfg));
            let lane = t.span("assembly.build", |_| {
                CdrModel::new(cfg).build_chain_with(&factors)
            });
            lanes.push(lane.map_err(err)?);
        }
        let product = t
            .span("fsm.compose", |_| ProductChain::new(lanes))
            .map_err(err)?;
        let op = product.operator();
        let tr = t.span("fsm.transpose", |_| op.transposed());
        let imp = t
            .span("markov.view", |_| {
                ImplicitStochastic::with_tolerance(op, tr, PRODUCT_TOL)
            })
            .map_err(err)?;
        let solver = t.span("mg.hierarchy", |_| product.solver(PRODUCT_SOLVE_TOL));
        let mut h = t
            .span("mg.prepare", |_| solver.prepare_op(&imp))
            .map_err(err)?;
        let (res, stats) = t
            .span("mg.solve", |_| solver.solve_op_prepared(&imp, &mut h, None))
            .map_err(err)?;
        Ok((product, res.distribution, stats))
    })
}

/// Independent checks of a product solution: the residual recomputed with
/// the row-gather kernel, and the Kronecker identity `π = π_a ⊗ π_b` with
/// each lane solved by GTH. Returns `‖π − π_a ⊗ π_b‖₁`.
fn check_product(product: &ProductChain, pi: &[f64]) -> Res<f64> {
    let op = product.operator();
    let imp = ImplicitStochastic::with_tolerance(op, op.transposed(), PRODUCT_TOL).map_err(err)?;
    check::stationary_implicit(&imp, pi, PRODUCT_SOLVE_TOL)?;
    let lanes: Vec<Vec<f64>> = product
        .lanes()
        .iter()
        .map(|l| l.analyze(SolverChoice::Direct).map(|a| a.stationary))
        .collect::<stochcdr::Result<_>>()
        .map_err(err)?;
    let d = check::dist_l1(pi, &check::kron(&lanes[0], &lanes[1]));
    if d <= KRON_TOL {
        Ok(d)
    } else {
        Err(format!("‖π − π_a ⊗ π_b‖₁ = {d:.3e} above {KRON_TOL:e}"))
    }
}

pub fn product_2lane(args: &Args, r: &mut Report) -> Res<()> {
    par::set_threads(Some(par::available()));
    let mut product = None;
    let setup = time_setup(|| {
        par::prewarm();
        product = Some(build_product(args.seed)?);
        Ok(())
    })?;
    let product = product.expect("set-up ran");
    r.set("setup_s", setup);
    r.note(format!(
        "product: {} states, {} lanes, {} materialized nonzeros, {} threads",
        product.state_count(),
        product.lanes().len(),
        product.materialized_nnz(),
        par::threads()
    ));
    if r.trace() {
        return product_traced_run(args, r);
    }

    let mut w = Window::new(args.seconds);
    let mut first: Option<Vec<f64>> = None;
    while w.room() {
        r.attempted += 1;
        let t0 = Instant::now();
        let out = product.solve_implicit(PRODUCT_SOLVE_TOL);
        w.record(t0.elapsed().as_secs_f64());
        match (out, &first) {
            (Err(e), _) => r.fail(format!("product solve: {e}")),
            (Ok(s), None) => first = Some(s.result.distribution),
            (Ok(s), Some(f)) => r.check(&s.result.distribution == f, || {
                "repeat product solve differs from the first".into()
            }),
        }
    }
    set_latency(r, "product solves", &w.lat);
    r.set("points_per_s", w.lat.len() as f64 / w.busy);
    r.set("product_solve_s", median(&w.lat));
    set_peak_rss(r);
    if let Some(pi) = &first {
        let checked = check_product(&product, pi);
        r.check(checked.is_ok(), || format!("product solve: {checked:?}"));
        if let Ok(d) = checked {
            r.note(format!("‖π − π_a ⊗ π_b‖₁ = {d:.2e} (GTH lanes)"));
        }
    }
    Ok(())
}

fn product_traced_run(args: &Args, r: &mut Report) -> Res<()> {
    let t0 = Instant::now();
    let plain = build_product(args.seed).and_then(|p| {
        p.solve_implicit(PRODUCT_SOLVE_TOL)
            .map(|s| s.result.distribution)
            .map_err(err)
    });
    let plain_s = t0.elapsed().as_secs_f64();

    let mut t = Tracer::new();
    let t0 = Instant::now();
    let traced = product_traced(&mut t, args.seed);
    let traced_s = t0.elapsed().as_secs_f64();
    r.set("trace.overhead_ratio", traced_s / plain_s);
    r.note(format!(
        "trace: 1 product solve untraced {plain_s:.3} s, traced {traced_s:.3} s"
    ));
    r.attempted += 1;
    let (product, pi, stats) = match traced {
        Ok(t) => t,
        Err(e) => {
            r.fail(format!("traced product solve: {e}"));
            return Ok(());
        }
    };
    let same = plain.as_ref().ok() == Some(&pi);
    let checked = check_product(&product, &pi);
    r.check(same && checked.is_ok(), || {
        format!("traced product solve: same bits as untraced {same}, check {checked:?}")
    });
    let lane_nnz: Vec<f64> = vec![product.lanes().iter().map(|l| l.nnz() as f64).sum()];
    set_layers(r, &t, &[stats], &lane_nnz);
    kernel_and_stream_probes(r, &product, args.seed);
    Ok(())
}

// ---------------------------------------------------------------------------
// Probes shared by every traced run
// ---------------------------------------------------------------------------

fn kernel_and_stream_probes(r: &mut Report, product: &ProductChain, seed: u64) {
    r.attempted += 2;
    let k = match probes::kernel_probe(product, seed) {
        Ok(k) => k,
        Err(e) => {
            r.fail(format!("kernel probe: {e}"));
            return;
        }
    };
    r.check(k.agrees(), || {
        format!(
            "kernel probe: gather off CSR by {:.2e}, shuffle by {:.2e} (max entry {:.2e})",
            k.gather_diff, k.shuffle_diff, k.max_out
        )
    });
    r.check(k.threads_bit_identical, || {
        format!(
            "kernel probe: CSR step differs between 1 and {} threads",
            k.threads
        )
    });
    let lanes = product.lanes().len();
    r.set("kernel.csr_step_s", k.csr_step_s);
    r.set("kernel.gather_s", k.gather_s);
    r.set("kernel.kron_shuffle_s", k.shuffle_s);
    r.set(
        "kernel.csr_step_entries_per_s",
        k.csr_nnz as f64 / k.csr_step_s,
    );
    r.set("kernel.gather_entries_per_s", k.csr_nnz as f64 / k.gather_s);
    r.set(
        "kernel.kron_shuffle_entries_per_s",
        k.shuffle_entries as f64 / k.shuffle_s,
    );
    let csr_bytes = probes::bytes_moved(k.csr_nnz, 1, k.states);
    r.set("kernel.csr_step_bytes", csr_bytes);
    r.set("kernel.gather_bytes", csr_bytes);
    r.set(
        "kernel.kron_shuffle_bytes",
        probes::bytes_moved(k.shuffle_entries, lanes, k.states),
    );
    r.set("par.spmv_speedup", k.csr_step_s / k.csr_step_nt_s);
    r.note(format!(
        "kernel probe: {} states, {} CSR entries, {} shuffle entries, 1 thread; \
         gather/shuffle max |Δ| vs CSR {:.1e}/{:.1e}; speed-up at {} threads; bytes are computed",
        k.states, k.csr_nnz, k.shuffle_entries, k.gather_diff, k.shuffle_diff, k.threads
    ));

    let s = probes::stream_probe();
    r.set("kernel.stream_gbps", s.gbps);
    r.set(
        "kernel.csr_step_bw_frac",
        csr_bytes / k.csr_step_s / 1e9 / s.gbps,
    );
    r.note(format!(
        "stream probe: triad over 3 arrays, {} MiB in all (LLC {} MiB), 1 thread",
        s.array_bytes >> 20,
        probes::LLC_BYTES >> 20
    ));
}
