//! The multi-level aggregation/disaggregation solver.
//!
//! Threading: the grid-transfer kernel (`lump_weighted_into`) fans out
//! over the `LumpPlan`'s precomputed gather-weight `RowPartition` (or its
//! coarse-row groups on an implicit fine grid), and every
//! smoothing/residual product rides the chain's own kernel — all on
//! the persistent `linalg::par` pool, with block fences that are a pure
//! function of the operator, never of the thread count.

use std::sync::Arc;
use std::time::Instant;

use stochcdr_linalg::{vecops, TransitionOp};
use stochcdr_markov::lumping::{disaggregate_scaled, lump_weighted_into, LumpPlan, Partition};
use stochcdr_markov::stationary::{
    ConvergenceSummary, ConvergenceTrace, GthSolver, SolveReport, StationaryResult,
    StationarySolver,
};
use stochcdr_markov::{Chain, ImplicitStochastic, MarkovError, Result, StochasticMatrix};
use stochcdr_obs as obs;

use crate::hierarchy::{CoarseWs, MgHierarchy, MgLevel, MgPhases};
use crate::Smoother;

/// Static span names per level, so per-level trace lanes stay
/// allocation-free. Hierarchies deeper than this share the last name.
const LEVEL_SPANS: [&str; 12] = [
    "mg.level0",
    "mg.level1",
    "mg.level2",
    "mg.level3",
    "mg.level4",
    "mg.level5",
    "mg.level6",
    "mg.level7",
    "mg.level8",
    "mg.level9",
    "mg.level10",
    "mg.level.deep",
];

fn level_span(level: usize) -> &'static str {
    LEVEL_SPANS[level.min(LEVEL_SPANS.len() - 1)]
}

/// Recursion pattern of the multigrid cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleKind {
    /// One recursive visit per level (V-cycle).
    V,
    /// One full recursive visit followed by a V-sweep (F-cycle): level `ℓ`
    /// is visited `ℓ + 1` times per fine cycle — between V and W in
    /// coarse-level work.
    F,
    /// Two recursive visits per level (W-cycle) — more coarse-level work,
    /// more robust on stiff chains. Truncated below [`MAX_W_DEPTH`]: on
    /// deep hierarchies an exact W-cycle re-enters level `ℓ` `2^ℓ` times,
    /// and each visit re-lumps and re-smooths, so the coarse traversal
    /// grows exponentially with depth while the extra visits stop buying
    /// contraction. Levels deeper than the cap recurse singly.
    W,
}

/// Depth at which W-recursion stops branching: level `ℓ` is visited
/// `2^min(ℓ, MAX_W_DEPTH)` times per W-cycle. Hierarchies up to
/// `MAX_W_DEPTH + 1` coarse levels run the textbook W-cycle unchanged;
/// the deep (12–17 level) implicit Kronecker hierarchies keep at most 64
/// revisits per level, which bounds the per-cycle coarse work at a small
/// multiple of one fine apply instead of an exponential in the depth.
pub const MAX_W_DEPTH: usize = 6;

impl CycleKind {
    /// The cycle kinds each recursive visit below `level` runs: a
    /// V-cycle recurses once as V, an F-cycle recurses as F then sweeps
    /// back up with a V, a W-cycle recurses twice as W until the
    /// [`MAX_W_DEPTH`] truncation stops the branching.
    fn children(self, level: usize) -> [Option<CycleKind>; 2] {
        match self {
            CycleKind::V => [Some(CycleKind::V), None],
            CycleKind::F => [Some(CycleKind::F), Some(CycleKind::V)],
            CycleKind::W if level < MAX_W_DEPTH => [Some(CycleKind::W), Some(CycleKind::W)],
            CycleKind::W => [Some(CycleKind::W), None],
        }
    }

    /// Number of times a cycle of this kind started at the fine grid
    /// visits the level `depth` grids below it.
    fn visits(self, depth: usize) -> f64 {
        match self {
            CycleKind::V => 1.0,
            CycleKind::F => (depth + 1) as f64,
            CycleKind::W => (depth.min(MAX_W_DEPTH) as f64).exp2(),
        }
    }

    /// Escalation order used by the adaptive controller: V < F < W.
    fn rank(self) -> u8 {
        match self {
            CycleKind::V => 0,
            CycleKind::F => 1,
            CycleKind::W => 2,
        }
    }

    /// Short name used by CLI flags and cache keys.
    pub fn cli_name(self) -> &'static str {
        match self {
            CycleKind::V => "v",
            CycleKind::F => "f",
            CycleKind::W => "w",
        }
    }
}

/// Cycle-kind schedule for a whole solve: either one fixed kind per
/// cycle, or the deterministic escalation controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleSchedule {
    /// Every cycle uses the same kind.
    Fixed(CycleKind),
    /// Escalate V→F→W when the per-cycle reduction EWMA (the
    /// [`ConvergenceTrace`] everyone else sees) crosses
    /// [`ESCALATE_TO_F`] / [`ESCALATE_TO_W`]. A pure function of the
    /// residual history — never of timing — so the chosen kinds are
    /// bit-identical at any thread count. Escalation is monotone: the
    /// controller never steps back down within one solve.
    Adaptive,
}

/// Adaptive controller: escalate V→F once the reduction EWMA reaches
/// this value (a healthy cycle contracts well below it).
pub const ESCALATE_TO_F: f64 = 0.6;
/// Adaptive controller: escalate to W once the EWMA reaches this value.
pub const ESCALATE_TO_W: f64 = 0.85;
/// Reduction observations required before the controller may escalate
/// (the EWMA needs a few cycles to mean anything).
const ESCALATE_WARMUP: usize = 4;

impl CycleSchedule {
    /// Kind of the first cycle (the adaptive schedule starts at V).
    fn initial(self) -> CycleKind {
        match self {
            CycleSchedule::Fixed(kind) => kind,
            CycleSchedule::Adaptive => CycleKind::V,
        }
    }

    /// Parses a CLI spelling: `v`, `f`, `w`, or `adaptive`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v" => Some(CycleSchedule::Fixed(CycleKind::V)),
            "f" => Some(CycleSchedule::Fixed(CycleKind::F)),
            "w" => Some(CycleSchedule::Fixed(CycleKind::W)),
            "adaptive" => Some(CycleSchedule::Adaptive),
            _ => None,
        }
    }

    /// The spelling [`parse`](Self::parse) accepts for this schedule.
    pub fn cli_name(self) -> &'static str {
        match self {
            CycleSchedule::Fixed(kind) => kind.cli_name(),
            CycleSchedule::Adaptive => "adaptive",
        }
    }

    /// Next kind the adaptive controller runs, given the kind of the
    /// previous cycle and the reduction history so far. Pure function of
    /// the residual history: thread-count invariant by construction.
    fn next_kind(self, current: CycleKind, convergence: &ConvergenceSummary) -> CycleKind {
        let CycleSchedule::Adaptive = self else {
            return current;
        };
        if convergence.reductions < ESCALATE_WARMUP {
            return current;
        }
        let Some(ewma) = convergence.ewma_reduction else {
            return current;
        };
        let target = if ewma >= ESCALATE_TO_W {
            CycleKind::W
        } else if ewma >= ESCALATE_TO_F {
            CycleKind::F
        } else {
            return current;
        };
        if target.rank() > current.rank() {
            target
        } else {
            current
        }
    }
}

/// Largest accepted Krylov window length (the small least-squares system
/// lives on the stack).
pub const MAX_KRYLOV_WINDOW: usize = 16;

/// Largest coarsest-level size accepted for the direct (GTH) solve; a
/// deeper partition sequence must bring the coarsest level under it.
pub const COARSE_DIRECT_MAX: usize = 4096;

/// Default Krylov window length: long enough to collapse a handful of
/// slow modes per window, short enough that the window storage stays a
/// small multiple of the iterate.
pub const DEFAULT_KRYLOV_RESTART: usize = 8;

/// Krylov acceleration of the multigrid fixed point: collect a window of
/// `restart` successive cycle iterates and their residual vectors, then
/// replace the iterate with the minimal-residual affine combination of
/// the window (GMRES on the multigrid-preconditioned fixed-point map,
/// computed by a deterministic serial Arnoldi/MGS factorization). The
/// candidate is accepted only when its true fine-grid residual improves
/// on the plain cycle's — a safeguard that makes acceleration strictly
/// non-harmful in exact arithmetic and deterministic in floating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KrylovAccel {
    /// Window length (iterates per extrapolation), in `2..=16`.
    pub restart: usize,
    /// When true, the window only starts filling after the
    /// [`ConvergenceTrace`] stall detector fires; when false it is armed
    /// from the first cycle.
    pub on_stall_only: bool,
}

impl KrylovAccel {
    /// Acceleration armed from the first cycle.
    pub fn always(restart: usize) -> Self {
        KrylovAccel {
            restart,
            on_stall_only: false,
        }
    }

    /// Acceleration armed by the stall detector.
    pub fn on_stall(restart: usize) -> Self {
        KrylovAccel {
            restart,
            on_stall_only: true,
        }
    }
}

impl Default for KrylovAccel {
    fn default() -> Self {
        KrylovAccel::always(DEFAULT_KRYLOV_RESTART)
    }
}

/// Builder for [`MultigridSolver`].
#[derive(Debug, Clone)]
pub struct MultigridBuilder {
    partitions: Vec<Partition>,
    pre_sweeps: usize,
    post_sweeps: usize,
    schedule: CycleSchedule,
    accel: Option<KrylovAccel>,
    smoother: Smoother,
    tol: f64,
    max_cycles: usize,
    fmg: bool,
    plans: Option<Arc<Vec<LumpPlan>>>,
}

impl MultigridBuilder {
    /// Pre-smoothing sweeps per level (default 1).
    pub fn pre_sweeps(mut self, n: usize) -> Self {
        self.pre_sweeps = n;
        self
    }

    /// Post-smoothing sweeps per level (default 2).
    pub fn post_sweeps(mut self, n: usize) -> Self {
        self.post_sweeps = n;
        self
    }

    /// Fixed cycle kind for every cycle (default V). Shorthand for
    /// [`schedule`](Self::schedule) with [`CycleSchedule::Fixed`].
    pub fn cycle(mut self, kind: CycleKind) -> Self {
        self.schedule = CycleSchedule::Fixed(kind);
        self
    }

    /// Cycle-kind schedule (default `Fixed(V)`): a fixed kind, or the
    /// deterministic V→F→W escalation controller.
    pub fn schedule(mut self, schedule: CycleSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enables Krylov acceleration of the cycle fixed point
    /// (default off).
    ///
    /// # Panics
    ///
    /// Panics unless `accel.restart` is in `2..=16`.
    pub fn accel(mut self, accel: KrylovAccel) -> Self {
        assert!(
            (2..=MAX_KRYLOV_WINDOW).contains(&accel.restart),
            "Krylov window length must be in 2..={MAX_KRYLOV_WINDOW}"
        );
        self.accel = Some(accel);
        self
    }

    /// Smoother (default damped Jacobi, ω = 0.8).
    pub fn smoother(mut self, s: Smoother) -> Self {
        self.smoother = s;
        self
    }

    /// Residual tolerance `||ηP − η||₁` (default 1e-12).
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0`.
    pub fn tol(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        self.tol = tol;
        self
    }

    /// Cycle budget (default 200).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn max_cycles(mut self, n: usize) -> Self {
        assert!(n > 0, "cycle budget must be positive");
        self.max_cycles = n;
        self
    }

    /// Enables full-multigrid (FMG) initialization (default off): before
    /// cycling, the chain is recursively aggregated to the coarsest level
    /// with uniform weights, solved there directly, and the solution
    /// prolonged back up — a coarse-grid first guess that usually saves
    /// several fine-level cycles.
    pub fn fmg(mut self, enable: bool) -> Self {
        self.fmg = enable;
        self
    }

    /// Injects precomputed symbolic lumping plans (default: none; the
    /// solver runs the symbolic analysis itself during
    /// [`MultigridSolver::prepare`]). Plans are pure functions of the fine
    /// sparsity pattern and the partition sequence, so sweep drivers cache
    /// and share them across solves whose patterns match; a mismatched
    /// stack is rejected by `prepare`, never silently used.
    pub fn plans(mut self, plans: Arc<Vec<LumpPlan>>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Finalizes the solver.
    pub fn build(self) -> MultigridSolver {
        MultigridSolver {
            partitions: self.partitions,
            pre_sweeps: self.pre_sweeps,
            post_sweeps: self.post_sweeps,
            schedule: self.schedule,
            accel: self.accel,
            smoother: self.smoother,
            tol: self.tol,
            max_cycles: self.max_cycles,
            fmg: self.fmg,
            plans: self.plans,
        }
    }
}

/// Per-solve diagnostics collected by
/// [`MultigridSolver::solve_with_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultigridStats {
    /// L1 residual after each cycle.
    pub residual_history: Vec<f64>,
    /// Number of levels (including the fine grid).
    pub levels: usize,
    /// State count at each level, fine first.
    pub level_sizes: Vec<usize>,
    /// Wall-clock seconds per phase (setup, smoothing, aggregation,
    /// disaggregation, coarse solves, residual checks). Advisory: the
    /// arithmetic is deterministic, the timings are not.
    pub phases: MgPhases,
    /// Condensed convergence trajectory: per-cycle reduction-factor EWMA
    /// and the stall detector's verdict. A pure function of
    /// [`MultigridStats::residual_history`], so bit-identical across
    /// thread counts.
    pub convergence: ConvergenceSummary,
    /// Total fine-grid work in units of one V-cycle: each cycle costs
    /// `Σ_ℓ visits(kind, ℓ)·w_ℓ / Σ_ℓ w_ℓ` V-cycle equivalents, where
    /// `w_ℓ` is the level's apply cost in multiply-adds (its nnz for
    /// materialized levels; [`TransitionOp::apply_cost`] for an implicit
    /// fine grid, whose compact nnz badly understates the real work), and
    /// every extra fine-grid residual evaluation the Krylov safeguard
    /// performs adds `w_0 / Σ_ℓ w_ℓ`. A deterministic cost metric: a
    /// pure function of the hierarchy pattern and the cycle/extrapolation
    /// decisions, never of timing. Equals the cycle count exactly for an
    /// unaccelerated fixed V schedule.
    pub cycle_equivalents: f64,
    /// Kind of the last cycle run (differs from the first only under
    /// [`CycleSchedule::Adaptive`]).
    pub final_cycle: CycleKind,
    /// Krylov extrapolation windows completed.
    pub krylov_windows: u64,
    /// Windows whose candidate beat the plain cycle and was accepted.
    pub krylov_accepts: u64,
}

/// Multi-level aggregation/disaggregation stationary solver.
///
/// One cycle at level `ℓ`:
///
/// 1. pre-smooth the iterate `x` on the level-`ℓ` chain,
/// 2. aggregate: build the weighted-lumped coarse chain using `x` as the
///    lumping weights (weak lumping), restrict `x` by block sums,
/// 3. recurse (or solve the coarsest level directly with GTH),
/// 4. disaggregate: distribute the coarse solution over each block
///    proportionally to the fine iterate (multiplicative correction),
/// 5. post-smooth.
///
/// The coarse chain is rebuilt *every cycle* from the current iterate —
/// the scheme is a fixed-point (nonlinear) multigrid whose exact solution
/// is a fixed point of the aggregation/disaggregation pair.
#[derive(Debug, Clone)]
pub struct MultigridSolver {
    partitions: Vec<Partition>,
    pre_sweeps: usize,
    post_sweeps: usize,
    schedule: CycleSchedule,
    accel: Option<KrylovAccel>,
    smoother: Smoother,
    tol: f64,
    max_cycles: usize,
    fmg: bool,
    plans: Option<Arc<Vec<LumpPlan>>>,
}

impl MultigridSolver {
    /// Starts building a solver from a fine-to-coarse partition sequence
    /// (e.g. from [`crate::GeometricCoarsening::levels`]).
    ///
    /// # Panics
    ///
    /// Panics if consecutive partitions do not chain (`partitions[k]`'s
    /// block count must equal `partitions[k+1]`'s state count).
    pub fn builder(partitions: Vec<Partition>) -> MultigridBuilder {
        for w in partitions.windows(2) {
            assert_eq!(
                w[0].block_count(),
                w[1].n(),
                "partition sequence does not chain"
            );
        }
        MultigridBuilder {
            partitions,
            pre_sweeps: 1,
            post_sweeps: 2,
            schedule: CycleSchedule::Fixed(CycleKind::V),
            accel: None,
            smoother: Smoother::default(),
            tol: 1e-12,
            max_cycles: 200,
            fmg: false,
            plans: None,
        }
    }

    /// Number of levels including the fine grid.
    pub fn levels(&self) -> usize {
        self.partitions.len() + 1
    }

    /// Solves and returns per-cycle diagnostics alongside the result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`prepare`](Self::prepare) and
    /// [`StationarySolver::solve`].
    pub fn solve_with_stats(
        &self,
        fine: &dyn Chain,
        init: Option<&[f64]>,
    ) -> Result<(StationaryResult, MultigridStats)> {
        let mut h = self.prepare(fine)?;
        self.solve_prepared(fine, &mut h, init)
    }

    /// One-time symbolic + storage setup for the fine chain: validates the
    /// partition sequence, runs (or adopts injected) symbolic lumping
    /// plans, and allocates every buffer the cycle loop needs. The fine
    /// chain is either materialized ([`StochasticMatrix`]) or matrix-free
    /// ([`ImplicitStochastic`]); the level-0 refresh follows
    /// [`Chain::csr`] (gather map with CSR storage, row traversal
    /// without), and only the coarse levels are ever materialized. The
    /// returned hierarchy is valid for any chain sharing the fine chain's
    /// sparsity pattern — value changes never require re-preparation.
    ///
    /// Instrumented as the `mg.setup` span.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] when the finest partition
    /// does not cover the chain, when the coarsest level exceeds the
    /// direct-solve cap, when injected plans do not match, when a
    /// chain without CSR storage would be the coarsest level (the direct
    /// solve needs a materialized chain), or when Gauss–Seidel smoothing
    /// meets a fine chain without a cached CSR transpose.
    pub fn prepare(&self, fine: &dyn Chain) -> Result<MgHierarchy> {
        let n = fine.rows();
        if let Some(part) = self.partitions.first() {
            if part.n() != n {
                return Err(MarkovError::InvalidArgument(format!(
                    "finest partition covers {} states, chain has {n}",
                    part.n()
                )));
            }
        }
        let coarsest = self.partitions.last().map_or(n, Partition::block_count);
        if coarsest > COARSE_DIRECT_MAX {
            return Err(MarkovError::InvalidArgument(format!(
                "coarsest level has {coarsest} states, exceeding the direct-solve cap \
                 {COARSE_DIRECT_MAX}; add more coarsening levels"
            )));
        }
        if self.partitions.is_empty() && fine.csr().is_none() {
            return Err(MarkovError::InvalidArgument(
                "implicit fine grid needs at least one coarsening level: the coarsest \
                 level must be materialized for the direct solve"
                    .into(),
            ));
        }
        if self.smoother == Smoother::GaussSeidel && fine.transpose_csr().is_none() {
            return Err(MarkovError::InvalidArgument(
                "Gauss–Seidel smoothing needs a cached CSR transpose of the fine chain; \
                 use Jacobi or power smoothing on an implicit fine grid"
                    .into(),
            ));
        }
        let t0 = Instant::now();
        let _span = obs::span("mg.setup");
        let plans = match &self.plans {
            Some(pl) => Arc::clone(pl),
            None => Arc::new(LumpPlan::build_stack(fine, &self.partitions)?),
        };
        let mut h = MgHierarchy::build(fine, &self.partitions, plans)?;
        h.phases.setup_secs = t0.elapsed().as_secs_f64();
        Ok(h)
    }

    /// [`prepare`](Self::prepare) for an implicit fine chain.
    ///
    /// # Errors
    ///
    /// Same conditions as [`prepare`](Self::prepare).
    pub fn prepare_op(&self, imp: &ImplicitStochastic<'_>) -> Result<MgHierarchy> {
        self.prepare(imp)
    }

    /// Runs one multigrid cycle against a prepared hierarchy and returns
    /// the L1 stationarity residual of the updated iterate.
    ///
    /// This is the allocation-free hot path: after [`prepare`](Self::prepare),
    /// repeated calls perform no heap allocations (instrumentation off,
    /// single worker thread) and produce bits identical to the original
    /// rebuild-everything cycle at any thread count.
    ///
    /// Callers driving the cycle loop themselves can feed the returned
    /// residuals to a [`ConvergenceTrace`] for reduction-factor EWMA and
    /// stall detection — [`solve_prepared`](Self::solve_prepared) does
    /// exactly that and reports the summary on [`MultigridStats`].
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if `h` was prepared for a
    /// different pattern, or propagates coarse-solve failures.
    pub fn cycle(&self, fine: &dyn Chain, h: &mut MgHierarchy, x: &mut [f64]) -> Result<f64> {
        self.cycle_with(self.schedule.initial(), fine, h, x)
    }

    /// [`cycle`](Self::cycle) with an explicit cycle kind, overriding the
    /// schedule for this one cycle. The adaptive solve loop drives this
    /// directly; it shares the workspace-reuse guarantees of `cycle`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cycle`](Self::cycle).
    pub fn cycle_with(
        &self,
        kind: CycleKind,
        fine: &dyn Chain,
        h: &mut MgHierarchy,
        x: &mut [f64],
    ) -> Result<f64> {
        if !h.matches(fine) {
            return Err(MarkovError::InvalidArgument(
                "hierarchy was prepared for a different chain".into(),
            ));
        }
        let MgHierarchy {
            plans,
            levels,
            gth,
            resid,
            phases,
            ..
        } = h;
        self.run_cycle(fine, kind, 0, plans, levels, gth, phases, x)?;
        let t0 = Instant::now();
        let res = residual(fine, x, resid);
        phases.residual_secs += t0.elapsed().as_secs_f64();
        Ok(res)
    }

    /// Cycles a prepared hierarchy to convergence. Same contract as
    /// [`solve_with_stats`](Self::solve_with_stats), minus the setup work:
    /// callers that solve many chains with one pattern (parameter sweeps)
    /// prepare once and reuse `h`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StationarySolver::solve`].
    pub fn solve_prepared(
        &self,
        fine: &dyn Chain,
        h: &mut MgHierarchy,
        init: Option<&[f64]>,
    ) -> Result<(StationaryResult, MultigridStats)> {
        if !h.matches(fine) {
            return Err(MarkovError::InvalidArgument(
                "hierarchy was prepared for a different chain".into(),
            ));
        }
        let x = match init {
            None if self.fmg => self.fmg_initial(fine, h)?,
            None => vecops::uniform(fine.rows()),
            Some(v) => checked_init(fine.rows(), v)?,
        };
        self.solve_loop(fine, h, x)
    }

    /// [`solve_prepared`](Self::solve_prepared) for an implicit fine
    /// chain.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve_prepared`](Self::solve_prepared).
    pub fn solve_op_prepared(
        &self,
        imp: &ImplicitStochastic<'_>,
        h: &mut MgHierarchy,
        init: Option<&[f64]>,
    ) -> Result<(StationaryResult, MultigridStats)> {
        self.solve_prepared(imp, h, init)
    }

    /// The cycle loop behind [`solve_prepared`](Self::solve_prepared).
    fn solve_loop(
        &self,
        fine: &dyn Chain,
        h: &mut MgHierarchy,
        mut x: Vec<f64>,
    ) -> Result<(StationaryResult, MultigridStats)> {
        let level_sizes = h.level_sizes();

        let _solve_span = obs::span("multigrid.solve");
        let coarsest_size = *level_sizes.last().expect("non-empty");
        obs::event(
            "multigrid.hierarchy",
            &[
                ("levels", self.levels().into()),
                ("fine_states", fine.rows().into()),
                ("coarsest_states", coarsest_size.into()),
                (
                    "coarsening_ratio",
                    (fine.rows() as f64 / coarsest_size.max(1) as f64).into(),
                ),
            ],
        );

        let mut history = Vec::new();
        // Multigrid stalls much faster than a slowly-grinding power
        // iteration would: a healthy cycle contracts by ~0.1, so even a
        // 0.9 reduction sustained over 5 cycles means the coarse
        // correction has stopped helping.
        let mut trace = ConvergenceTrace::new("multigrid.stall").with_stall(0.9, 5);
        // Live progress (default off): interval-throttled solve.progress
        // heartbeats with an ETA projected from the EWMA contraction.
        let heartbeat = obs::Heartbeat::new("multigrid");

        // Deterministic cost accounting: per-level logical work (nnz) and
        // the resulting V-cycle-equivalent price of each cycle kind. The
        // coarse patterns are fixed by the plans, so these are constants
        // of the hierarchy.
        let mut level_work = Vec::with_capacity(h.levels.len() + 1);
        level_work.push(h.fine_work as f64);
        for lvl in &h.levels {
            level_work.push(lvl.coarse.matrix().nnz() as f64);
        }
        let v_cost: f64 = level_work.iter().sum();
        let kind_cost = |kind: CycleKind| -> f64 {
            level_work
                .iter()
                .enumerate()
                .map(|(depth, w)| kind.visits(depth) * w)
                .sum::<f64>()
                / v_cost
        };
        let fine_apply_cost = level_work[0] / v_cost;
        let mut cycle_equivalents = 0.0;

        let mut kind = self.schedule.initial();
        let mut krylov = match self.accel {
            Some(a) if !a.on_stall_only => Some(KrylovWindow::new(fine.rows(), a.restart)),
            _ => None,
        };
        let mut krylov_windows = 0u64;
        let mut krylov_accepts = 0u64;

        for cycle in 1..=self.max_cycles {
            let next = self.schedule.next_kind(kind, &trace.summary());
            if next != kind {
                obs::event(
                    "multigrid.cycle_type",
                    &[
                        ("cycle", cycle.into()),
                        ("from", kind.cli_name().into()),
                        ("to", next.cli_name().into()),
                    ],
                );
                kind = next;
            }
            let cycle_t0 = obs::enabled().then(Instant::now);
            let cycle_span = obs::span("cycle");
            let mut res = self.cycle_with(kind, fine, h, &mut x)?;
            drop(cycle_span);
            cycle_equivalents += kind_cost(kind);
            if let Some(w) = krylov.as_mut() {
                // `h.resid` holds xP from the residual evaluation above,
                // so the residual *vector* of the cycle's iterate is free.
                w.push(&x, &h.resid);
                if w.full() {
                    krylov_windows += 1;
                    obs::counter("solver.krylov.windows", 1);
                    let _accel_span = obs::span("krylov.extrapolate");
                    if w.extrapolate() {
                        // Safeguard: one true fine-grid residual for the
                        // candidate (priced like any other fine apply).
                        let res_y = residual(fine, &w.y, &mut h.resid);
                        cycle_equivalents += fine_apply_cost;
                        if res_y < res {
                            krylov_accepts += 1;
                            obs::counter("solver.krylov.accepts", 1);
                            obs::histogram(
                                "solver.krylov.gain",
                                res / res_y.max(f64::MIN_POSITIVE),
                            );
                            x.copy_from_slice(&w.y);
                            res = res_y;
                        } else {
                            obs::counter("solver.krylov.rejects", 1);
                        }
                    }
                    w.clear();
                }
            }
            trace.observe(res);
            if krylov.is_none() && trace.stalled() {
                if let Some(a) = self.accel {
                    // Stall-triggered arming: the window starts filling
                    // from the next cycle on.
                    obs::event(
                        "solver.krylov.armed",
                        &[("cycle", cycle.into()), ("restart", a.restart.into())],
                    );
                    krylov = Some(KrylovWindow::new(fine.rows(), a.restart));
                }
            }
            if heartbeat.active() {
                heartbeat.tick_solve(cycle as u64, res, trace.summary().ewma_reduction, self.tol);
            }
            if let Some(t0) = cycle_t0 {
                obs::histogram("multigrid.cycle.ns", t0.elapsed().as_nanos() as f64);
                // Per-cycle contraction factor: the distribution the
                // convergence claim rests on, not just its last value.
                if let Some(&prev) = history.last() {
                    if prev > 0.0 {
                        obs::histogram("multigrid.residual_reduction", res / prev);
                    }
                }
            }
            history.push(res);
            obs::event(
                "multigrid.cycle",
                &[("cycle", cycle.into()), ("residual", res.into())],
            );
            if res <= self.tol {
                vecops::clamp_roundoff(&mut x, 1e-12);
                // Clamping perturbs the iterate, so the pre-clamp residual
                // no longer describes the distribution actually returned:
                // recompute it and keep history's last entry in sync.
                let final_res = residual(fine, &x, &mut h.resid);
                *history.last_mut().expect("pushed above") = final_res;
                obs::event(
                    "multigrid.converged",
                    &[
                        ("cycles", cycle.into()),
                        ("residual", final_res.into()),
                        ("cycle_equivalents", cycle_equivalents.into()),
                    ],
                );
                let convergence = trace.summary();
                if obs::enabled() {
                    if let Some(ewma) = convergence.ewma_reduction {
                        obs::gauge("multigrid.reduction_ewma", ewma);
                    }
                }
                let result = StationaryResult {
                    distribution: x,
                    report: SolveReport {
                        iterations: cycle,
                        residual: final_res,
                        residual_history: history.clone(),
                        convergence: convergence.clone(),
                    },
                };
                let stats = MultigridStats {
                    residual_history: history,
                    levels: self.levels(),
                    level_sizes,
                    phases: h.phases,
                    convergence,
                    cycle_equivalents,
                    final_cycle: kind,
                    krylov_windows,
                    krylov_accepts,
                };
                return Ok((result, stats));
            }
        }
        Err(MarkovError::NotConverged {
            iterations: self.max_cycles,
            residual: *history.last().unwrap_or(&f64::NAN),
        })
    }

    /// Full-multigrid first guess over the prepared hierarchy: `prepare`
    /// refreshed every coarse chain with uniform weights (exactly the
    /// chains the from-scratch FMG built), so this just solves the
    /// coarsest chain and prolongs back up with the cached uniform shares,
    /// smoothing at each level. One-time initialization: allocation here
    /// is fine.
    fn fmg_initial(&self, fine: &dyn Chain, h: &mut MgHierarchy) -> Result<Vec<f64>> {
        // Re-refresh every level with uniform weights: a freshly prepared
        // hierarchy already is (this is a bit-identical no-op there), but a
        // reused one holds iterate-weighted chains from previous cycles.
        for k in 0..h.levels.len() {
            let (done, rest) = h.levels.split_at_mut(k);
            let lvl = &mut rest[0];
            let chain: &dyn Chain = if k == 0 { fine } else { &done[k - 1].coarse };
            let ones = vec![1.0; chain.rows()];
            lump_weighted_into(
                chain,
                &self.partitions[k],
                &ones,
                &h.plans[k],
                &mut lvl.ws,
                &mut lvl.coarse,
            )?;
        }
        let MgHierarchy { levels, gth, .. } = h;
        let mut x = vecops::uniform(levels.last().map_or(fine.rows(), |l| l.coarse.n()));
        let coarsest: &dyn Chain = levels.last().map_or(fine, |l| &l.coarse);
        self.solve_coarsest_ws(coarsest, gth, &mut x)?;
        // Prolong upward with uniform in-block weights, smoothing as we go.
        for (level, part) in self.partitions.iter().enumerate().rev() {
            let mut xf = vec![0.0; part.n()];
            disaggregate_scaled(part, &x, levels[level].ws.wscale(), &mut xf);
            vecops::normalize_l1(&mut xf);
            let (done, rest) = levels.split_at_mut(level);
            let chain: &dyn Chain = if level == 0 {
                fine
            } else {
                &done[level - 1].coarse
            };
            let lvl = &mut rest[0];
            let sweeps = self.post_sweeps.max(1);
            self.smoother
                .apply_ws(chain, &mut xf, sweeps, &mut lvl.diag, &mut lvl.sm);
            x = xf;
        }
        Ok(x)
    }

    /// Smoothing sweeps with per-level accounting: a `smooth` span, the
    /// level's sweep counter, and a per-level sweep-time histogram. The
    /// owned names only materialize when instrumentation is enabled.
    fn smooth_ws(
        &self,
        chain: &dyn Chain,
        x: &mut [f64],
        sweeps: usize,
        level: usize,
        lvl: &mut MgLevel,
        ph: &mut MgPhases,
    ) {
        let t0 = Instant::now();
        if !obs::enabled() {
            self.smoother
                .apply_ws(chain, x, sweeps, &mut lvl.diag, &mut lvl.sm);
            ph.smooth_secs += t0.elapsed().as_secs_f64();
            return;
        }
        {
            let _span = obs::span("smooth");
            self.smoother
                .apply_ws(chain, x, sweeps, &mut lvl.diag, &mut lvl.sm);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        ph.smooth_secs += ns * 1e-9;
        obs::counter(
            &format!("multigrid.smooth_sweeps.level{level}"),
            sweeps as u64,
        );
        obs::histogram(&format!("multigrid.smooth.ns.level{level}"), ns);
    }

    /// One multigrid cycle at `level`, updating `x` in place. Numeric
    /// only: the coarse chain's values are refreshed through the cached
    /// plan, the restriction is the block-weight vector the refresh
    /// already computed, and the prolongation reuses its per-state shares.
    #[allow(clippy::too_many_arguments)]
    fn run_cycle(
        &self,
        chain: &dyn Chain,
        kind: CycleKind,
        level: usize,
        plans: &[LumpPlan],
        levels: &mut [MgLevel],
        cw: &mut CoarseWs,
        ph: &mut MgPhases,
        x: &mut [f64],
    ) -> Result<()> {
        let _level_span = obs::span(level_span(level));
        let Some((lvl, rest)) = levels.split_first_mut() else {
            let t0 = Instant::now();
            let _span = obs::span("coarse_solve");
            let r = self.solve_coarsest_ws(chain, cw, x);
            ph.coarse_solve_secs += t0.elapsed().as_secs_f64();
            return r;
        };
        self.smooth_ws(chain, x, self.pre_sweeps, level, lvl, ph);

        let part = &self.partitions[level];
        let t0 = Instant::now();
        let agg_span = obs::span("aggregate");
        {
            let _refresh = obs::span("mg.refresh");
            lump_weighted_into(chain, part, x, &plans[level], &mut lvl.ws, &mut lvl.coarse)?;
        }
        // The refresh's block-weight pass *is* the restriction: same block
        // sums, same order, same bits as `aggregate(part, x)`.
        lvl.xc.copy_from_slice(lvl.ws.block_weight());
        vecops::normalize_l1(&mut lvl.xc);
        drop(agg_span);
        ph.aggregate_secs += t0.elapsed().as_secs_f64();
        for child in kind.children(level).into_iter().flatten() {
            self.run_cycle(
                &lvl.coarse,
                child,
                level + 1,
                plans,
                rest,
                cw,
                ph,
                &mut lvl.xc,
            )?;
        }
        let t0 = Instant::now();
        let disagg_span = obs::span("disaggregate");
        disaggregate_scaled(part, &lvl.xc, lvl.ws.wscale(), x);
        vecops::normalize_l1(x);
        drop(disagg_span);
        ph.disaggregate_secs += t0.elapsed().as_secs_f64();

        self.smooth_ws(chain, x, self.post_sweeps, level, lvl, ph);
        Ok(())
    }

    /// Direct solve at the coarsest level; falls back to smoothing sweeps
    /// when the (weight-dependent) coarse chain is numerically reducible.
    /// The dense scratch is reused across cycles: zero it, scatter the
    /// chain's entries (what `to_dense` builds), eliminate in place.
    fn solve_coarsest_ws(&self, chain: &dyn Chain, cw: &mut CoarseWs, x: &mut [f64]) -> Result<()> {
        let gth_span = obs::span("markov.gth");
        cw.dense.fill(0.0);
        for r in 0..chain.rows() {
            let row = cw.dense.row_mut(r);
            chain.for_each_in_row(r, &mut |c, v| row[c] = v);
        }
        match GthSolver::new().solve_dense_in_place(&mut cw.dense, x) {
            Ok(()) => {
                if obs::enabled() {
                    let residual = residual(chain, x, &mut cw.resid);
                    obs::event(
                        "markov.gth",
                        &[
                            ("states", chain.rows().into()),
                            ("residual", residual.into()),
                        ],
                    );
                }
                Ok(())
            }
            Err(MarkovError::Reducible(_)) => {
                drop(gth_span);
                // Zero-weight aggregates can disconnect the coarse chain;
                // relaxation still reduces the error, so smooth instead.
                // (A failed elimination never touches `x`.)
                self.smoother
                    .apply_ws(chain, x, 20, &mut cw.diag, &mut cw.sm);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

/// The L1 stationarity residual `‖xP − x‖₁` of `x` on `chain`; `scratch`
/// receives `xP` (the Krylov window reads it back).
fn residual(chain: &dyn Chain, x: &[f64], scratch: &mut [f64]) -> f64 {
    chain.mul_left_into(x, scratch);
    vecops::dist1(scratch, x)
}

/// Workspace for the windowed minimal-residual extrapolation: `restart`
/// iterates with their residual vectors, plus the candidate buffer. All
/// storage is allocated once (at arming) and reused across windows; the
/// per-cycle hot path [`MultigridSolver::cycle`] never sees it.
struct KrylovWindow {
    /// Window iterates `x_0 … x_{m−1}`.
    xs: Vec<Vec<f64>>,
    /// Their residual vectors `r_i = x_iP − x_i`; during extrapolation
    /// the first `m − 1` slots are overwritten in place by the
    /// orthonormalized difference basis.
    rs: Vec<Vec<f64>>,
    /// Candidate combination.
    y: Vec<f64>,
    len: usize,
}

impl KrylovWindow {
    fn new(n: usize, restart: usize) -> Self {
        KrylovWindow {
            xs: vec![vec![0.0; n]; restart],
            rs: vec![vec![0.0; n]; restart],
            y: vec![0.0; n],
            len: 0,
        }
    }

    /// Records an iterate and its residual vector, given `xp = xP` (the
    /// scratch the cycle's residual evaluation already produced).
    fn push(&mut self, x: &[f64], xp: &[f64]) {
        let i = self.len;
        self.xs[i].copy_from_slice(x);
        for ((r, &a), &b) in self.rs[i].iter_mut().zip(xp).zip(x) {
            *r = a - b;
        }
        self.len += 1;
    }

    fn full(&self) -> bool {
        self.len == self.xs.len()
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Minimal-residual extrapolation over the full window: finds the
    /// affine combination `y = Σ c_i x_i`, `Σ c_i = 1`, minimizing the
    /// 2-norm of the linearized residual `Σ c_i r_i`, via a serial
    /// modified-Gram-Schmidt QR of the difference basis
    /// `s_i = r_i − r_{m−1}` (every reduction is a serial `vecops` dot,
    /// so the coefficients are bit-identical at any thread count). The
    /// combination is clamped to the simplex (negative entries zeroed,
    /// L1-normalized) before it lands in `self.y`.
    ///
    /// Returns false when the basis is numerically degenerate or the
    /// clamped combination has no mass — callers then skip the window.
    fn extrapolate(&mut self) -> bool {
        let m = self.len;
        debug_assert!(self.full() && m >= 2);
        let (basis, tail) = self.rs.split_at_mut(m - 1);
        let r_last = &tail[0];
        let k = m - 1;
        let mut r = [[0.0f64; MAX_KRYLOV_WINDOW]; MAX_KRYLOV_WINDOW];
        let mut used = [false; MAX_KRYLOV_WINDOW];
        for i in 0..k {
            vecops::axpy(-1.0, r_last, &mut basis[i]);
            let norm0 = vecops::norm2(&basis[i]);
            let (left, right) = basis.split_at_mut(i);
            let qi = &mut right[0];
            for (j, qj) in left.iter().enumerate() {
                if !used[j] {
                    continue;
                }
                let hij = vecops::dot(qj, qi);
                r[j][i] = hij;
                vecops::axpy(-hij, qj, qi);
            }
            let nrm = vecops::norm2(qi);
            // Columns that vanish under orthogonalization carry no new
            // direction; drop them rather than divide by noise.
            if nrm > 1e-12 * norm0.max(f64::MIN_POSITIVE) {
                vecops::scale(1.0 / nrm, qi);
                r[i][i] = nrm;
                used[i] = true;
            }
        }
        if !used.iter().take(k).any(|&u| u) {
            return false;
        }
        // γ = argmin ‖r_last + Σ γ_i s_i‖₂  ⇒  Rγ = −Qᵀ r_last.
        let mut gamma = [0.0f64; MAX_KRYLOV_WINDOW];
        let mut beta = [0.0f64; MAX_KRYLOV_WINDOW];
        for j in 0..k {
            if used[j] {
                beta[j] = -vecops::dot(&basis[j], r_last);
            }
        }
        for i in (0..k).rev() {
            if !used[i] {
                continue;
            }
            let mut s = beta[i];
            for j in (i + 1)..k {
                if used[j] {
                    s -= r[i][j] * gamma[j];
                }
            }
            gamma[i] = s / r[i][i];
        }
        // y = (1 − Σγ)·x_last + Σ γ_i x_i, clamped back onto the simplex.
        let c_last = 1.0 - gamma.iter().take(k).sum::<f64>();
        self.y.copy_from_slice(&self.xs[m - 1]);
        vecops::scale(c_last, &mut self.y);
        for i in 0..k {
            if used[i] && gamma[i] != 0.0 {
                vecops::axpy(gamma[i], &self.xs[i], &mut self.y);
            }
        }
        for v in &mut self.y {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        vecops::normalize_l1(&mut self.y)
    }
}

/// Validates a caller-provided starting vector and normalizes it.
fn checked_init(n: usize, v: &[f64]) -> Result<Vec<f64>> {
    let mut x = v.to_vec();
    if x.len() != n || !vecops::is_nonnegative(&x) || !vecops::normalize_l1(&mut x) {
        return Err(MarkovError::InvalidArgument(
            "initial vector must be a non-negative distribution of matching length".into(),
        ));
    }
    Ok(x)
}

impl StationarySolver for MultigridSolver {
    /// Materializes the operator as a validated [`StochasticMatrix`] and
    /// runs the cycling on it. The aggregation/disaggregation transfers
    /// need explicit row access and rebuild lumped chains every cycle, so
    /// multigrid cannot stay matrix-free; backends that already are a
    /// `StochasticMatrix` take the direct [`solve`](StationarySolver::solve)
    /// path with no copy.
    fn solve_op(&self, op: &dyn TransitionOp, init: Option<&[f64]>) -> Result<StationaryResult> {
        let p = StochasticMatrix::with_tolerance(op.materialize_csr(), 1e-6)?;
        self.solve_with_stats(&p, init).map(|(r, _)| r)
    }

    fn solve(&self, p: &StochasticMatrix, init: Option<&[f64]>) -> Result<StationaryResult> {
        self.solve_with_stats(p, init).map(|(r, _)| r)
    }

    fn name(&self) -> &'static str {
        match (self.schedule, self.accel.is_some()) {
            (_, true) => "multigrid-krylov",
            (CycleSchedule::Fixed(CycleKind::V), false) => "multigrid-v",
            (CycleSchedule::Fixed(CycleKind::F), false) => "multigrid-f",
            (CycleSchedule::Fixed(CycleKind::W), false) => "multigrid-w",
            (CycleSchedule::Adaptive, false) => "multigrid-adaptive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeometricCoarsening, PairwiseCoarsening};
    use stochcdr_fsm::KroneckerOp;
    use stochcdr_linalg::CooMatrix;
    use stochcdr_markov::stationary::PowerIteration;

    /// Birth–death chain of `n` states with up-probability `up`.
    fn birth_death(n: usize, up: f64) -> StochasticMatrix {
        let down = 1.0 - up;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i == 0 {
                coo.push(0, 0, down);
            } else {
                coo.push(i, i - 1, down);
            }
            if i == n - 1 {
                coo.push(i, i, up);
            } else {
                coo.push(i, i + 1, up);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    /// A stiff nearly-completely-decomposable chain: `k` clusters of `m`
    /// states with weak ring coupling `eps` — the structure multigrid
    /// excels at. Within each cluster, a reflecting birth–death walk with a
    /// geometric (non-uniform) stationary profile.
    fn ncd_chain(k: usize, m: usize, eps: f64) -> StochasticMatrix {
        let n = k * m;
        let (up, down) = (0.7 * (1.0 - eps), 0.3 * (1.0 - eps));
        let mut coo = CooMatrix::new(n, n);
        for c in 0..k {
            for i in 0..m {
                let s = c * m + i;
                if i == 0 {
                    coo.push(s, s, down);
                } else {
                    coo.push(s, s - 1, down);
                }
                if i == m - 1 {
                    coo.push(s, s, up);
                } else {
                    coo.push(s, s + 1, up);
                }
                // Weak coupling to the same position in the next cluster.
                coo.push(s, ((c + 1) % k) * m + i, eps);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn matches_power_iteration_on_birth_death() {
        let p = birth_death(64, 0.45);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(64))
            .tol(1e-11)
            .build();
        let mg = solver.solve(&p, None).unwrap();
        let pw = PowerIteration::new(1e-13, 2_000_000)
            .solve(&p, None)
            .unwrap();
        assert!(vecops::dist1(&mg.distribution, &pw.distribution) < 1e-8);
    }

    #[test]
    fn solves_ncd_chain_where_power_struggles() {
        let p = ncd_chain(4, 8, 1e-7);
        // Start with all mass in cluster 0: the inter-cluster equilibration
        // is the 1 − O(eps) slow mode.
        let mut init = vec![0.0; 32];
        for v in init.iter_mut().take(8) {
            *v = 1.0 / 8.0;
        }
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
            .cycle(CycleKind::W)
            .tol(1e-12)
            .build();
        let (r, stats) = solver.solve_with_stats(&p, Some(&init)).unwrap();
        assert!(p.stationary_residual(&r.distribution) < 1e-11);
        assert!(stats.levels >= 3);
        // Correctness: all four clusters carry equal mass.
        for c in 0..4 {
            let mass: f64 = r.distribution[c * 8..(c + 1) * 8].iter().sum();
            assert!((mass - 0.25).abs() < 1e-9, "cluster {c} mass {mass}");
        }
        // Power iteration with an equivalent sweep budget barely moves the
        // cluster masses: residual stays at the O(eps) coupling scale.
        let budget = r.iterations() * (stats.levels * 4);
        let mut x = init;
        let mut buf = vec![0.0; 32];
        for _ in 0..budget {
            p.step_into(&x, &mut buf);
            std::mem::swap(&mut x, &mut buf);
        }
        assert!(p.stationary_residual(&x) > p.stationary_residual(&r.distribution) * 100.0);
    }

    #[test]
    fn geometric_coarsening_on_product_chain() {
        // 2-component chain: independent toggle (dim 2) x birth-death (dim 32),
        // phase component fastest-varying.
        let bd = birth_death(32, 0.4);
        let mut coo = CooMatrix::new(64, 64);
        for s in 0..64usize {
            let (t, phi) = (s / 32, s % 32);
            for (phi2, v) in bd.matrix().row(phi) {
                coo.push(s, (1 - t) * 32 + phi2, v);
            }
        }
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let parts = GeometricCoarsening::new(vec![2, 32], 1, 4).levels();
        let solver = MultigridSolver::builder(parts)
            .tol(1e-11)
            .max_cycles(500)
            .build();
        let r = solver.solve(&p, None).unwrap();
        // Product stationary: uniform over toggle x geometric over phase.
        let pw = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pw.distribution) < 1e-8);
    }

    #[test]
    fn fmg_initialization_saves_cycles_on_stiff_chain() {
        let p = ncd_chain(4, 8, 1e-7);
        let parts = PairwiseCoarsening::until(4).levels(32);
        let plain = MultigridSolver::builder(parts.clone())
            .cycle(CycleKind::W)
            .tol(1e-11)
            .build()
            .solve(&p, None)
            .unwrap();
        let fmg = MultigridSolver::builder(parts)
            .cycle(CycleKind::W)
            .tol(1e-11)
            .fmg(true)
            .build()
            .solve(&p, None)
            .unwrap();
        assert!(p.stationary_residual(&fmg.distribution) < 1e-10);
        assert!(
            fmg.iterations() <= plain.iterations(),
            "FMG {} cycles vs plain {}",
            fmg.iterations(),
            plain.iterations()
        );
        assert!(vecops::dist1(&fmg.distribution, &plain.distribution) < 1e-8);
    }

    #[test]
    fn implicit_path_matches_the_materialized_solve() {
        // A raw CSR plays the role of the never-materialized operator: the
        // ImplicitStochastic wrapper refreshes level 0 from exactly the
        // values the validated StochasticMatrix stores, and its products
        // differ from the materialized ones by rounding only — so both
        // solves take the same cycles over the same levels and land on
        // the same π to 1e-12 relative. Rows are scaled off one (inside
        // the 1e-6 tolerance) so the renormalization is not the identity.
        let drift: Vec<f64> = (0..32).map(|i| 1.0 + 1e-7 * (i % 5) as f64).collect();
        let raw = ncd_chain(4, 8, 1e-7).matrix().scale_rows(&drift);
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        for (smoother, fmg) in [
            (Smoother::Jacobi { omega: 0.8 }, false),
            (Smoother::Power, false),
            (Smoother::Jacobi { omega: 0.8 }, true),
        ] {
            let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
                .cycle(CycleKind::W)
                .smoother(smoother.clone())
                .fmg(fmg)
                .tol(1e-12)
                .build();
            let (rm, sm) = solver.solve_with_stats(&mat, None).unwrap();
            let (ri, si) = solver.solve_with_stats(&imp, None).unwrap();
            assert_eq!(rm.iterations(), ri.iterations(), "{smoother:?}");
            assert_eq!(sm.level_sizes, si.level_sizes);
            let scale = rm.distribution.iter().fold(0.0f64, |m, v| m.max(*v));
            for (a, b) in rm.distribution.iter().zip(&ri.distribution) {
                assert!((a - b).abs() <= 1e-12 * scale, "{smoother:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn implicit_hierarchy_is_reusable_across_solves() {
        let raw = ncd_chain(4, 8, 1e-7).matrix().clone();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
            .tol(1e-11)
            .build();
        let mut h = solver.prepare_op(&imp).unwrap();
        let (a, _) = solver.solve_op_prepared(&imp, &mut h, None).unwrap();
        let (b, _) = solver.solve_op_prepared(&imp, &mut h, None).unwrap();
        assert_eq!(a.distribution, b.distribution);
        // Cached plans can seed a second solver instance.
        let reuse = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32))
            .tol(1e-11)
            .plans(Arc::clone(h.plans()))
            .build();
        let (c, _) = reuse.solve_with_stats(&imp, None).unwrap();
        assert_eq!(a.distribution, c.distribution);
    }

    #[test]
    fn implicit_path_rejects_unsupported_shapes() {
        let raw = birth_death(16, 0.4).matrix().clone();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        // No coarsening levels: the coarsest solve needs a materialized chain.
        let direct = MultigridSolver::builder(vec![]).build();
        assert!(matches!(
            direct.prepare_op(&imp),
            Err(MarkovError::InvalidArgument(_))
        ));
        // Mismatched hierarchy rejected.
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(16)).build();
        let mut h = solver.prepare_op(&imp).unwrap();
        let other_raw = birth_death(32, 0.4).matrix().clone();
        let other_t = other_raw.transpose();
        let other = ImplicitStochastic::with_tolerance(&other_raw, &other_t, 1e-6).unwrap();
        let mut x = vecops::uniform(32);
        assert!(solver.cycle(&other, &mut h, &mut x).is_err());
        // A hierarchy prepared matrix-free never matches a materialized
        // chain of the same size, and vice versa.
        let mat = birth_death(16, 0.4);
        let mut x = vecops::uniform(16);
        assert!(solver.cycle(&mat, &mut h, &mut x).is_err());
        let mut hm = solver.prepare(&mat).unwrap();
        assert!(solver.cycle(&imp, &mut hm, &mut x).is_err());
    }

    #[test]
    fn gauss_seidel_needs_a_csr_transpose() {
        let raw = birth_death(16, 0.4).matrix().clone();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(16))
            .smoother(Smoother::GaussSeidel)
            .build();
        assert!(matches!(
            solver.prepare(&imp),
            Err(MarkovError::InvalidArgument(_))
        ));
        // The materialized chain caches its transpose.
        assert!(solver.prepare(&birth_death(16, 0.4)).is_ok());
    }

    /// 8-state ring whose forward drift grows with the state index, so
    /// the stationary distribution is not uniform.
    fn drift_ring(d: f64) -> stochcdr_linalg::CsrMatrix {
        let n = 8;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let up = 0.25 + d * i as f64 / n as f64;
            coo.push(i, (i + 1) % n, up);
            coo.push(i, (i + n - 1) % n, 0.2);
            coo.push(i, i, 0.8 - up);
        }
        coo.to_csr()
    }

    #[test]
    fn reused_implicit_hierarchy_matches_fresh_prepare_bitwise() {
        // Prepare on one product chain, then solve another with the same
        // pattern: every smoothing call must read the new chain's
        // diagonal, so the reused hierarchy reproduces a fresh prepare
        // bit for bit.
        let a = KroneckerOp::new(vec![drift_ring(0.1), drift_ring(0.1)]);
        let b = KroneckerOp::new(vec![drift_ring(0.5), drift_ring(0.3)]);
        let imp_a = ImplicitStochastic::with_tolerance(&a, a.transposed(), 1e-9).unwrap();
        let imp_b = ImplicitStochastic::with_tolerance(&b, b.transposed(), 1e-9).unwrap();
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(64))
            .tol(1e-12)
            .build();
        let mut reused = solver.prepare(&imp_a).unwrap();
        let (r, sr) = solver.solve_prepared(&imp_b, &mut reused, None).unwrap();
        let mut fresh = solver.prepare(&imp_b).unwrap();
        let (f, sf) = solver.solve_prepared(&imp_b, &mut fresh, None).unwrap();
        assert_eq!(r.iterations(), f.iterations());
        assert_eq!(sr.residual_history, sf.residual_history);
        let same = r
            .distribution
            .iter()
            .zip(&f.distribution)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "reused hierarchy diverges from a fresh prepare");
    }

    #[test]
    fn no_partitions_degenerates_to_direct() {
        let p = birth_death(16, 0.3);
        let solver = MultigridSolver::builder(vec![]).build();
        let r = solver.solve(&p, None).unwrap();
        assert!(p.stationary_residual(&r.distribution) < 1e-12);
        assert_eq!(r.iterations(), 1);
    }

    #[test]
    fn coarse_cap_enforced() {
        let p = birth_death(COARSE_DIRECT_MAX + 1, 0.4);
        let solver = MultigridSolver::builder(vec![]).build();
        assert!(matches!(
            solver.solve(&p, None),
            Err(MarkovError::InvalidArgument(_))
        ));
    }

    #[test]
    fn mismatched_partition_rejected() {
        let p = birth_death(16, 0.4);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(32)).build();
        assert!(solver.solve(&p, None).is_err());
    }

    #[test]
    fn stats_expose_hierarchy() {
        let p = birth_death(64, 0.45);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(64))
            .tol(1e-10)
            .build();
        let (_, stats) = solver.solve_with_stats(&p, None).unwrap();
        assert_eq!(stats.level_sizes, vec![64, 32, 16, 8]);
        assert_eq!(stats.levels, 4);
        assert!(!stats.residual_history.is_empty());
        // Residual history is (weakly) decreasing at the tail.
        let h = &stats.residual_history;
        if h.len() >= 2 {
            assert!(h[h.len() - 1] <= h[0]);
        }
    }

    #[test]
    fn invalid_init_rejected() {
        let p = birth_death(16, 0.4);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(4).levels(16)).build();
        assert!(solver.solve(&p, Some(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn f_cycle_solves_and_costs_between_v_and_w() {
        let p = ncd_chain(4, 8, 1e-7);
        let parts = PairwiseCoarsening::until(4).levels(32);
        let gth = GthSolver::new().solve(&p, None).unwrap();
        let mut equivalents_per_cycle = Vec::new();
        for kind in [CycleKind::V, CycleKind::F, CycleKind::W] {
            let solver = MultigridSolver::builder(parts.clone())
                .cycle(kind)
                .tol(1e-12)
                .build();
            let (r, stats) = solver.solve_with_stats(&p, None).unwrap();
            assert!(vecops::dist1(&r.distribution, &gth.distribution) < 1e-8);
            assert_eq!(stats.final_cycle, kind);
            equivalents_per_cycle.push(stats.cycle_equivalents / r.report.iterations as f64);
        }
        // Per-cycle price: V is the unit, F sits strictly between V and W.
        assert_eq!(equivalents_per_cycle[0], 1.0);
        assert!(equivalents_per_cycle[0] < equivalents_per_cycle[1]);
        assert!(equivalents_per_cycle[1] < equivalents_per_cycle[2]);
    }

    #[test]
    fn fixed_v_cycle_equivalents_equal_cycle_count() {
        let p = birth_death(64, 0.45);
        let solver = MultigridSolver::builder(PairwiseCoarsening::until(8).levels(64))
            .tol(1e-10)
            .build();
        let (r, stats) = solver.solve_with_stats(&p, None).unwrap();
        assert_eq!(stats.cycle_equivalents, r.report.iterations as f64);
        assert_eq!(stats.krylov_windows, 0);
        assert_eq!(stats.final_cycle, CycleKind::V);
    }

    #[test]
    fn adaptive_schedule_escalates_deterministically() {
        // An underdamped single-sweep smoother leaves V-cycles crawling
        // (fixed-V EWMA ≈ 0.94 on this chain), so the controller must
        // escalate.
        let p = ncd_chain(4, 8, 0.2);
        let parts = PairwiseCoarsening::until(4).levels(32);
        let adaptive = MultigridSolver::builder(parts.clone())
            .schedule(CycleSchedule::Adaptive)
            .smoother(Smoother::Jacobi { omega: 0.15 })
            .pre_sweeps(0)
            .post_sweeps(1)
            .tol(1e-12)
            .max_cycles(20_000)
            .build();
        let (r, stats) = adaptive.solve_with_stats(&p, None).unwrap();
        let gth = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &gth.distribution) < 1e-8);
        assert!(
            stats.final_cycle.rank() > CycleKind::V.rank(),
            "controller never escalated on a chain where V-cycles crawl"
        );
        // The decision sequence is a pure function of the residual
        // history: a second run reproduces it bit for bit.
        let (r2, stats2) = adaptive.solve_with_stats(&p, None).unwrap();
        assert_eq!(r.distribution, r2.distribution);
        assert_eq!(stats.residual_history, stats2.residual_history);
        assert_eq!(stats.cycle_equivalents, stats2.cycle_equivalents);
    }

    #[test]
    fn krylov_acceleration_reduces_cycles_on_stiff_chain() {
        let p = ncd_chain(4, 8, 0.2);
        let parts = PairwiseCoarsening::until(4).levels(32);
        let plain = MultigridSolver::builder(parts.clone())
            .tol(1e-12)
            .max_cycles(20_000)
            .build();
        let accel = MultigridSolver::builder(parts)
            .tol(1e-12)
            .max_cycles(20_000)
            .accel(KrylovAccel::always(6))
            .build();
        let (rp, _) = plain.solve_with_stats(&p, None).unwrap();
        let (ra, sa) = accel.solve_with_stats(&p, None).unwrap();
        let gth = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&ra.distribution, &gth.distribution) < 1e-8);
        assert!(sa.krylov_windows > 0);
        assert!(sa.krylov_accepts > 0, "no extrapolation ever accepted");
        assert!(
            sa.cycle_equivalents < 0.7 * rp.report.iterations as f64,
            "acceleration saved too little: {} equivalents vs {} plain cycles",
            sa.cycle_equivalents,
            rp.report.iterations
        );
        // Deterministic: same bits on a rerun.
        let (ra2, sa2) = accel.solve_with_stats(&p, None).unwrap();
        assert_eq!(ra.distribution, ra2.distribution);
        assert_eq!(sa.cycle_equivalents, sa2.cycle_equivalents);
    }

    #[test]
    fn stall_triggered_acceleration_arms_only_after_stall() {
        let p = ncd_chain(4, 8, 0.2);
        let parts = PairwiseCoarsening::until(4).levels(32);
        let accel = MultigridSolver::builder(parts)
            .smoother(Smoother::Jacobi { omega: 0.15 })
            .pre_sweeps(0)
            .post_sweeps(1)
            .tol(1e-12)
            .max_cycles(20_000)
            .accel(KrylovAccel::on_stall(6))
            .build();
        let (r, stats) = accel.solve_with_stats(&p, None).unwrap();
        let gth = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &gth.distribution) < 1e-8);
        let stalled_at = stats.convergence.stalled_at.expect("chain must stall");
        assert!(stats.krylov_windows > 0);
        // The first window needs `restart` pushes after arming, so no
        // window can complete before the stall fires.
        assert!(r.report.iterations > stalled_at);
    }

    #[test]
    fn cycle_schedule_parses_cli_names() {
        for s in [
            CycleSchedule::Fixed(CycleKind::V),
            CycleSchedule::Fixed(CycleKind::F),
            CycleSchedule::Fixed(CycleKind::W),
            CycleSchedule::Adaptive,
        ] {
            assert_eq!(CycleSchedule::parse(s.cli_name()), Some(s));
        }
        assert_eq!(CycleSchedule::parse("x"), None);
    }

    #[test]
    fn solver_names_cover_schedules() {
        let parts = PairwiseCoarsening::until(4).levels(16);
        let mk = |b: MultigridBuilder| b.build().name();
        assert_eq!(mk(MultigridSolver::builder(parts.clone())), "multigrid-v");
        assert_eq!(
            mk(MultigridSolver::builder(parts.clone()).cycle(CycleKind::F)),
            "multigrid-f"
        );
        assert_eq!(
            mk(MultigridSolver::builder(parts.clone()).cycle(CycleKind::W)),
            "multigrid-w"
        );
        assert_eq!(
            mk(MultigridSolver::builder(parts.clone()).schedule(CycleSchedule::Adaptive)),
            "multigrid-adaptive"
        );
        assert_eq!(
            mk(MultigridSolver::builder(parts).accel(KrylovAccel::default())),
            "multigrid-krylov"
        );
    }
}
