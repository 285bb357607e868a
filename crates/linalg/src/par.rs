//! Deterministic persistent-pool parallel kernels.
//!
//! A zero-dependency worker layer built on a lazily spawned **persistent
//! worker pool**: helper threads are created once (on the first dispatch
//! that needs them) and then park on a condvar between jobs, so a kernel
//! dispatch costs a mutex round-trip and a wake — not a thread spawn and
//! a scoped-thread teardown. Every primitive here is designed around one
//! contract:
//!
//! > **Determinism contract.** The numerical result of a parallel kernel
//! > is bit-identical for every thread count, including one.
//!
//! Two mechanisms enforce it:
//!
//! 1. **Disjoint output partitioning** ([`for_each_chunk_mut`],
//!    [`for_each_chunk_aligned_mut`], [`for_each_partition_mut`]): the
//!    output slice is split into contiguous chunks and each output
//!    element is computed *wholly* by one worker, in the same
//!    element-local order as the serial loop. Chunk boundaries may depend
//!    on the thread count because no floating-point value ever crosses a
//!    boundary — except for [`for_each_partition_mut`], whose block
//!    boundaries come from a precomputed [`RowPartition`] and are a pure
//!    function of the operator's weight profile, never of the thread
//!    count (workers *steal* fixed blocks instead of re-cutting them).
//! 2. **Fixed-shape reductions** ([`map_chunks`], [`map_tasks`]): work is
//!    cut into chunks whose boundaries are a pure function of the problem
//!    size (never of the thread count), and per-chunk partial results are
//!    combined by the caller in ascending chunk order. Workers may steal
//!    chunks in any order; the combine order is still deterministic.
//!
//! Thread-count resolution (highest precedence first):
//! [`set_threads`] (the `--threads` CLI flag) → the `STOCHCDR_THREADS`
//! environment variable → [`std::thread::available_parallelism`]. The
//! [`set_threads`] override is scoped to the calling thread: a kernel
//! reads the count on the thread that dispatches it, and pool helpers
//! never dispatch (their nested kernels run serially, with the same
//! bits), so a caller pins the pool size for its own work without
//! touching any other thread's.
//!
//! # Pool mechanics
//!
//! A single process-wide pool ([`run_pooled`]) owns `max(t) - 1` detached
//! helper threads, spawned lazily and reused for every subsequent
//! dispatch. A dispatch publishes a type-erased `Fn(usize)` task under
//! the pool mutex, bumps a job epoch, and wakes the helpers; each helper
//! claims a distinct worker index (`1..t`), runs its share, and parks
//! again. The calling thread always runs worker index `0`, so a
//! `t`-thread kernel uses the caller plus `t - 1` helpers. The caller
//! blocks until every helper has finished (a condvar join), which is what
//! makes lending the caller's stack-local closure to the pool sound.
//!
//! Dispatches are serialized by a `try_lock` on a dispatch mutex: if a
//! kernel is invoked while another dispatch is in flight (including from
//! inside a pool worker — nested parallelism), it simply runs its
//! workers' shares serially on the current thread, which by the
//! determinism contract produces the same bits.
//!
//! When `stochcdr-obs` instrumentation is enabled, every parallel kernel
//! invocation additionally profiles its workers: each worker runs under a
//! `par.worker` span on its own trace lane (attributed to the span that
//! launched the kernel), per-worker busy nanoseconds feed the
//! `par.worker.busy_ns` histogram, and the ratio of busy time to the
//! workers' busy window (earliest worker start → latest worker end; pool
//! wake/join excluded) is emitted as the `par.utilization` gauge.
//! All of it is timing-only — the numeric results remain bit-identical
//! whether instrumentation is on or off.

// The only module in the crate allowed to use `unsafe`: the pool lends a
// stack-local closure to persistent threads and reconstructs disjoint
// subslices from raw pointers. Each unsafe block documents the protocol
// that makes it sound.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::Instant;

use stochcdr_obs as obs;

/// Minimum number of output elements before a kernel goes parallel.
///
/// Below this size the dispatch overhead dominates; kernels fall back to
/// the serial path (which, per the determinism contract, produces the
/// same bits). With the persistent pool a dispatch costs a mutex
/// round-trip plus a condvar wake per helper (single-digit microseconds),
/// not the tens of microseconds per worker the old scoped spawn paid —
/// so the gate sits at 32k elements (~0.25 MB of traffic), half the old
/// spawn-era cutoff.
pub const PARALLEL_CUTOFF: usize = 32_768;

/// Minimum total *weight* (e.g. matrix nonzeros) before a weighted kernel
/// ([`for_each_partition_mut`], [`for_each_grouped_chunk_mut`]) goes
/// parallel.
///
/// Weighted kernels gate on the work actually performed rather than the
/// output length: a tall-skinny CSR operator concentrates its flops in
/// few rows, so nonzeros — not rows — predict the win. With pool
/// dispatch replacing per-call spawns the crossover halves to ~64k
/// nonzeros (~0.75 MB of matrix traffic).
pub const PARALLEL_NNZ_CUTOFF: usize = 65_536;

/// Target weight (nonzeros) per [`RowPartition`] block.
///
/// A block's matrix traffic is roughly `16 B × weight` (a `u32` index
/// plus an `f64` value, plus the touched `x`/`y` entries), so 32k
/// nonzeros keep a block's working set near 0.5 MB — comfortably inside
/// a per-core L2 slice — while leaving enough blocks per operator above
/// [`PARALLEL_NNZ_CUTOFF`] for the stealing loop to balance load.
pub const PARTITION_BLOCK_WEIGHT: usize = 32_768;

thread_local! {
    /// This thread's [`set_threads`] override; 0 = unset. Const-initialized
    /// so [`threads`] stays allocation-free.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}
/// `STOCHCDR_THREADS`, else [`available`], resolved once: the OS query
/// behind `available` allocates, and [`threads`] runs on every dispatch.
static DEFAULT: OnceLock<usize> = OnceLock::new();

/// Hardware parallelism as reported by the OS (≥ 1).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn default_threads() -> usize {
    *DEFAULT.get_or_init(|| {
        std::env::var("STOCHCDR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(available)
    })
}

/// Overrides the worker count for the parallel kernels this thread
/// dispatches from now on.
///
/// `Some(n)` pins the count to `n` (the `--threads N` CLI flag lands
/// here); `None` clears the override, falling back to `STOCHCDR_THREADS`
/// and then to [`available`]. Other threads keep their own setting; a
/// thread that never calls this resolves the default.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.with(|o| o.set(n.unwrap_or(0)));
}

/// Resolved worker count for the calling thread: its override →
/// `STOCHCDR_THREADS` → hardware.
pub fn threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    default_threads()
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// Type-erased borrow of the dispatching kernel's task closure.
///
/// The raw pointer lets the `'static` worker loop call a stack-local
/// closure; soundness comes from the dispatch protocol — the caller
/// blocks until `remaining == 0` before the closure goes out of scope.
#[derive(Clone, Copy)]
struct Task(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the dispatch protocol guarantees it outlives every worker's use.
unsafe impl Send for Task {}

struct PoolState {
    /// Monotone job counter; a helper only claims work for an epoch it
    /// has not seen yet, so stale wakeups and extra helpers (from an
    /// earlier, wider dispatch) skip jobs that are already fully claimed.
    epoch: u64,
    task: Option<Task>,
    /// Next worker index to hand out; helpers claim `1..=helpers`
    /// (index 0 is the calling thread).
    next: usize,
    helpers: usize,
    /// Helpers that have not yet finished the current job.
    remaining: usize,
    panicked: bool,
    /// Helper threads spawned so far (lazily grown, never shrunk).
    spawned: usize,
}

struct Pool {
    m: Mutex<PoolState>,
    /// Signals helpers that a new job (epoch) is available.
    work: Condvar,
    /// Signals the dispatcher that `remaining` reached zero.
    done: Condvar,
}

static POOL: Pool = Pool {
    m: Mutex::new(PoolState {
        epoch: 0,
        task: None,
        next: 1,
        helpers: 0,
        remaining: 0,
        panicked: false,
        spawned: 0,
    }),
    work: Condvar::new(),
    done: Condvar::new(),
};

/// Serializes dispatches. Held for the whole job, so a nested kernel (or
/// a concurrent dispatch from another thread) fails the `try_lock` and
/// runs serially — same bits, no deadlock.
static DISPATCH: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set once on every pool helper: a helper never dispatches to the
    /// pool itself (its nested kernels run serial shares inline).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Locks the pool state, surviving poisoning (a panicking worker must not
/// wedge every later dispatch — the `panicked` flag carries the report).
fn lock_pool() -> MutexGuard<'static, PoolState> {
    POOL.m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop() {
    IN_POOL.with(|c| c.set(true));
    let mut seen = 0u64;
    loop {
        let mut st = lock_pool();
        let (task, w) = loop {
            if st.epoch != seen {
                if st.task.is_some() && st.next <= st.helpers {
                    let w = st.next;
                    st.next += 1;
                    break (st.task.expect("task present while claiming"), w);
                }
                // A job we have not run, but it is already fully claimed
                // (or cleared): mark it seen and go back to sleep.
                seen = st.epoch;
            }
            st = POOL.work.wait(st).unwrap_or_else(|e| e.into_inner());
        };
        seen = st.epoch;
        drop(st);
        // SAFETY: the dispatcher blocks until `remaining == 0`, so the
        // closure behind the pointer is alive for the whole call.
        let ok = catch_unwind(AssertUnwindSafe(|| (unsafe { &*task.0 })(w))).is_ok();
        let mut st = lock_pool();
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            POOL.done.notify_all();
        }
    }
}

/// Spawns detached helpers until `spawned >= helpers`. Called with the
/// pool lock held.
fn ensure_spawned(st: &mut PoolState, helpers: usize) {
    while st.spawned < helpers {
        std::thread::Builder::new()
            .name("stochcdr-par".into())
            .spawn(worker_loop)
            .expect("spawn pool worker");
        st.spawned += 1;
    }
}

/// Joins the in-flight job on drop: waits for every helper, clears the
/// task slot, and propagates a worker panic. Running in `Drop` makes the
/// join panic-safe — even if the caller's own share (worker 0) panics,
/// no helper is left running a closure that is about to go out of scope.
struct JobGuard;

impl Drop for JobGuard {
    fn drop(&mut self) {
        let mut st = lock_pool();
        while st.remaining > 0 {
            st = POOL.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.task = None;
        let panicked = std::mem::replace(&mut st.panicked, false);
        drop(st);
        if panicked && !std::thread::panicking() {
            panic!("parallel worker panicked");
        }
    }
}

/// Runs `task(w)` for every worker index `w in 0..t`, fanning helpers out
/// across the persistent pool when it is free.
///
/// Falls back to running all shares serially on the current thread when
/// `t <= 1`, when called from inside a pool helper, or when another
/// dispatch holds the pool — the shares are disjoint and element-local,
/// so the serial schedule produces identical bits.
fn run_pooled(t: usize, task: &(dyn Fn(usize) + Sync)) {
    let serial = |task: &(dyn Fn(usize) + Sync)| {
        for w in 0..t {
            task(w);
        }
    };
    if t <= 1 || IN_POOL.with(Cell::get) {
        serial(task);
        return;
    }
    let _dispatch = match DISPATCH.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            serial(task);
            return;
        }
    };
    let helpers = t - 1;
    // SAFETY: the fake 'static lifetime never escapes this call — the
    // `JobGuard` below blocks until every helper has returned from the
    // closure before `task` can go out of scope in the caller.
    let task_static: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
    {
        let mut st = lock_pool();
        ensure_spawned(&mut st, helpers);
        st.epoch = st.epoch.wrapping_add(1);
        st.task = Some(Task(task_static as *const _));
        st.next = 1;
        st.helpers = helpers;
        st.remaining = helpers;
        st.panicked = false;
        POOL.work.notify_all();
    }
    let guard = JobGuard;
    task(0);
    drop(guard);
}

/// Spawns (but does not dispatch to) the helper threads the current
/// thread-count setting would use.
///
/// Call before a measured window so the one-time thread-spawn cost and
/// its allocations land outside the measurement; every later kernel then
/// pays only the park/unpark dispatch cost.
pub fn prewarm() {
    let t = threads();
    if t <= 1 {
        return;
    }
    let _dispatch = match DISPATCH.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => return,
    };
    ensure_spawned(&mut lock_pool(), t - 1);
}

/// Sends a raw pointer across the pool so each worker can reconstruct its
/// *disjoint* chunk of the output slice. Soundness rests on the kernels'
/// chunk geometry: no two worker indices ever map to overlapping ranges.
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor method (rather than field access) so closures capture the
    /// whole `Sync` wrapper instead of disjointly capturing the raw
    /// pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Row partitions
// ---------------------------------------------------------------------------

/// A precomputed, cache-aware, weight-balanced blocking of `0..rows`.
///
/// Block boundaries are a pure function of the per-row weight profile
/// (CSR row nonzeros, via the index pointer) and of nothing else — in
/// particular **never** of the thread count. [`for_each_partition_mut`]
/// lets workers steal whole blocks from a shared cursor: each output
/// element is still computed wholly by one worker inside a fixed block,
/// so results are bit-identical for every thread count while load
/// balancing adapts to however many workers show up.
///
/// Blocks target [`PARTITION_BLOCK_WEIGHT`] nonzeros each (sized so one
/// block's matrix traffic fits a per-core L2 slice) and are balanced to
/// within one maximal row of the ideal share — for operators whose
/// heaviest row is ≤ 10% of a block, that is the ±10% nnz balance the
/// blocking aims for. A partition is cheap to build (one binary search
/// per block) and is meant to be computed once per operator and cached —
/// `CsrMatrix` memoizes one per sparsity pattern, and the lumping plan
/// carries one alongside its gather map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    /// Block fence: `bounds[k]..bounds[k + 1]` is block `k`. Always has
    /// at least two entries (`0` and `rows`), strictly increasing in
    /// between.
    bounds: Vec<usize>,
    total_weight: usize,
}

impl RowPartition {
    /// Builds a partition from a non-decreasing weight prefix sum
    /// (`prefix.len() == rows + 1`; for CSR, pass the index pointer so
    /// `prefix[i + 1] - prefix[i]` is row `i`'s nonzero count).
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is empty.
    pub fn from_weight_prefix(prefix: &[usize]) -> Self {
        assert!(
            !prefix.is_empty(),
            "weight prefix needs at least the leading total"
        );
        debug_assert!(prefix.windows(2).all(|w| w[0] <= w[1]));
        let rows = prefix.len() - 1;
        let total = prefix[rows] - prefix[0];
        let nblocks = if rows == 0 {
            1
        } else {
            (total / PARTITION_BLOCK_WEIGHT).clamp(1, rows)
        };
        let mut bounds = Vec::with_capacity(nblocks + 1);
        bounds.push(0);
        for k in 1..nblocks {
            // Boundary k: the row count whose cumulative weight first
            // exceeds an equal share of the total. Identical targets (a
            // single row heavier than a share) collapse into one block.
            let target = prefix[0] + ((total as u128 * k as u128) / nblocks as u128) as usize;
            let b = prefix[1..=rows].partition_point(|&w| w <= target);
            let last = *bounds.last().expect("bounds non-empty");
            if b > last && b < rows {
                bounds.push(b);
            }
        }
        bounds.push(rows);
        RowPartition {
            bounds,
            total_weight: total,
        }
    }

    /// Number of rows covered.
    pub fn rows(&self) -> usize {
        *self.bounds.last().expect("bounds non-empty")
    }

    /// Number of blocks (≥ 1; a single possibly-empty block for
    /// zero-row partitions).
    pub fn blocks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Row range of block `k`.
    pub fn block(&self, k: usize) -> Range<usize> {
        self.bounds[k]..self.bounds[k + 1]
    }

    /// Total weight the partition was built from (drives the
    /// [`PARALLEL_NNZ_CUTOFF`] gate).
    pub fn total_weight(&self) -> usize {
        self.total_weight
    }

    /// The block fence (`blocks() + 1` entries, first `0`, last
    /// [`rows`](Self::rows)).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

/// Per-kernel-invocation worker profiler, active only while a sink is
/// installed (`None` otherwise — the disabled path adds one relaxed
/// atomic load per kernel call and allocates nothing).
struct ScopeObs {
    kernel: &'static str,
    /// Span open on the launching thread, so worker-lane spans link back
    /// to the scope that fanned out.
    parent: u64,
    start: Instant,
    busy: Vec<AtomicU64>,
    /// Offset (ns since `start`) at which the earliest worker began its
    /// share — everything before it is dispatch wake-up.
    first_start_ns: AtomicU64,
    /// Offset at which the latest worker finished its share —
    /// everything after it is the join.
    last_end_ns: AtomicU64,
}

impl ScopeObs {
    fn new(kernel: &'static str, workers: usize) -> Option<Self> {
        if !obs::enabled() {
            return None;
        }
        Some(ScopeObs {
            kernel,
            parent: obs::current_span_id(),
            start: Instant::now(),
            busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            first_start_ns: AtomicU64::new(u64::MAX),
            last_end_ns: AtomicU64::new(0),
        })
    }

    /// Runs one worker's whole share under a `par.worker` span.
    ///
    /// `pin_lane` gives pool thread `worker` the stable trace lane
    /// `worker + 1` — but only when the thread has no lane yet, so
    /// nested kernels (a worker's share running a serial inner kernel)
    /// fall back to fresh lane ids instead of colliding with the outer
    /// pool's lanes. The caller-thread share (worker 0) passes
    /// `pin_lane = false` and stays on the caller's own lane.
    fn run<R>(this: Option<&Self>, worker: usize, pin_lane: bool, f: impl FnOnce() -> R) -> R {
        let Some(s) = this else { return f() };
        let _lane = (pin_lane && !obs::has_lane()).then(|| obs::lane(worker as u64 + 1));
        let _span = obs::span_child_of("par.worker", s.parent);
        let t0 = s.start.elapsed().as_nanos() as u64;
        let r = f();
        let t1 = s.start.elapsed().as_nanos() as u64;
        s.busy[worker].fetch_add(t1 - t0, Ordering::Relaxed);
        s.first_start_ns.fetch_min(t0, Ordering::Relaxed);
        s.last_end_ns.fetch_max(t1, Ordering::Relaxed);
        r
    }

    /// Emits the per-scope utilization records once every worker joined.
    ///
    /// `par.utilization` is busy time over the workers' *busy window*
    /// (earliest worker start to latest worker end) — dispatch wake-up
    /// and the join are excluded from the denominator, so the gauge
    /// measures how well the dispatched work kept the pool busy rather
    /// than how the work compares to dispatch overhead (which made
    /// short dispatches read ~0.2 regardless of balance). The full
    /// dispatch wall time, wake-up included, still ships on the kernel
    /// event as `wall_ns` next to `window_ns`.
    fn finish(this: Option<Self>, threads: usize) {
        let Some(s) = this else { return };
        let wall = s.start.elapsed().as_nanos() as u64;
        let mut total = 0u64;
        for b in &s.busy {
            let ns = b.load(Ordering::Relaxed);
            total += ns;
            obs::histogram("par.worker.busy_ns", ns as f64);
        }
        let first = s.first_start_ns.load(Ordering::Relaxed);
        let last = s.last_end_ns.load(Ordering::Relaxed);
        let window = if first == u64::MAX {
            0
        } else {
            last.saturating_sub(first)
        };
        let util = if window == 0 || threads == 0 {
            0.0
        } else {
            total as f64 / (threads as f64 * window as f64)
        };
        obs::gauge("par.utilization", util);
        obs::event(
            s.kernel,
            &[
                ("threads", threads.into()),
                ("wall_ns", wall.into()),
                ("window_ns", window.into()),
                ("busy_ns", total.into()),
                ("utilization", util.into()),
            ],
        );
    }
}

/// Splits `out` into at most `threads()` contiguous chunks and runs
/// `body(start, chunk)` on each, in parallel.
///
/// `start` is the offset of `chunk` within `out`. The body must compute
/// each output element independently of the chunk geometry — that is what
/// makes the result bit-identical for every thread count. Small slices
/// (below [`PARALLEL_CUTOFF`]) run serially as a single chunk.
pub fn for_each_chunk_mut<T, F>(out: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_chunk_aligned_mut(out, 1, body);
}

/// Like [`for_each_chunk_mut`] but chunk boundaries are multiples of
/// `align` elements.
///
/// Used when the output is logically a sequence of fixed-size blocks that
/// must not be split across workers (e.g. the per-mode blocks of a
/// Kronecker-factor apply).
pub fn for_each_chunk_aligned_mut<T, F>(out: &mut [T], align: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align >= 1, "alignment must be at least 1");
    assert!(
        out.len().is_multiple_of(align),
        "slice length must be a multiple of the alignment"
    );
    let n = out.len();
    let blocks = n / align;
    let t = threads().min(blocks.max(1));
    if t <= 1 || n < PARALLEL_CUTOFF {
        if !out.is_empty() {
            body(0, out);
        }
        return;
    }
    let base = blocks / t;
    let rem = blocks % t;
    let sobs = ScopeObs::new("par.for_each_chunk", t);
    let ptr = SendPtr(out.as_mut_ptr());
    let task = |w: usize| {
        // Worker w owns blocks [w·base + min(w, rem), (w+1)·base +
        // min(w+1, rem)): the same fence a sequential split would cut,
        // computed independently per worker.
        let b0 = w * base + w.min(rem);
        let b1 = (w + 1) * base + (w + 1).min(rem);
        let (s, e) = (b0 * align, b1 * align);
        if s == e {
            return;
        }
        ScopeObs::run(sobs.as_ref(), w, w != 0, || {
            // SAFETY: worker ranges are disjoint and within `out`.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
            body(s, chunk);
        });
    };
    run_pooled(t, &task);
    ScopeObs::finish(sobs, t);
}

/// Runs `body(start, chunk)` over the blocks of a precomputed
/// [`RowPartition`], stealing blocks from a shared cursor.
///
/// The row-parallel kernel for operators applied many times: blocks are
/// balanced by weight (e.g. nonzeros per row) once at partition build,
/// each block's working set is sized for L2 residency, and because the
/// block fence never depends on the thread count, the stealing schedule
/// cannot change a single output bit — every element is produced wholly
/// by one worker inside a fixed block.
///
/// Runs serially (one `body(0, out)` call) when the partition's total
/// weight is under [`PARALLEL_NNZ_CUTOFF`] or only one thread is
/// resolved.
///
/// # Panics
///
/// Panics if the partition does not cover `out` exactly.
pub fn for_each_partition_mut<T, F>(out: &mut [T], part: &RowPartition, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(
        part.rows(),
        out.len(),
        "partition must cover the output slice exactly"
    );
    let nb = part.blocks();
    let t = threads().min(nb);
    if t <= 1 || part.total_weight() < PARALLEL_NNZ_CUTOFF {
        if !out.is_empty() {
            body(0, out);
        }
        return;
    }
    let sobs = ScopeObs::new("par.for_each_partition", t);
    let cursor = AtomicUsize::new(0);
    let ptr = SendPtr(out.as_mut_ptr());
    let task = |w: usize| {
        ScopeObs::run(sobs.as_ref(), w, w != 0, || loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= nb {
                break;
            }
            let r = part.block(k);
            if r.is_empty() {
                continue;
            }
            // SAFETY: blocks are disjoint and the cursor hands each block
            // to exactly one worker.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
            body(r.start, chunk);
        })
    };
    run_pooled(t, &task);
    ScopeObs::finish(sobs, t);
}

/// Like [`for_each_chunk_mut`] but chunk boundaries fall on *group*
/// boundaries, balanced by per-group cost, and each worker borrows one
/// caller-provided scratch slot.
///
/// `out` is logically a concatenation of `group_ptr.len() - 1` contiguous
/// groups: group `g` owns `out[group_ptr[g]..group_ptr[g + 1]]`
/// (`group_ptr[0]` must be `0` and the last entry must be `out.len()`).
/// Groups are never split across workers — the kernel for a group may
/// need every element of its group (e.g. refreshing one coarse matrix row
/// from a sort-and-accumulate over its sources). `cost` is a
/// non-decreasing prefix of per-group work (length `groups + 1`): worker
/// `w` of `t` takes the groups whose cumulative cost falls in the `w`-th
/// equal share of the total, so each gets about `total / t` of the work
/// rather than `groups / t` of the groups. The kernel runs serially when
/// the total cost is below [`PARALLEL_NNZ_CUTOFF`].
///
/// Each worker receives one `&mut S` slot from `scratch`; the worker
/// count is capped at `scratch.len()`, so callers preallocating
/// [`threads`]`()` slots keep the body allocation-free. `body(groups,
/// chunk, scratch)` gets the group index range, the slice covering
/// exactly those groups (`chunk[0]` is `out[group_ptr[groups.start]]`),
/// and its scratch slot.
///
/// The determinism contract holds as for [`for_each_chunk_mut`]: every
/// group is produced wholly by one worker in serial group-local order, so
/// results are bit-identical for every thread count.
///
/// # Panics
///
/// Panics if the pointer/cost arrays are inconsistent with `out`, or if
/// `scratch` is empty.
pub fn for_each_grouped_chunk_mut<T, S, F>(
    out: &mut [T],
    group_ptr: &[usize],
    cost: &[usize],
    scratch: &mut [S],
    body: F,
) where
    T: Send,
    S: Send,
    F: Fn(Range<usize>, &mut [T], &mut S) + Sync,
{
    let g = group_ptr.len().checked_sub(1).expect("group_ptr non-empty");
    assert!(
        group_ptr[0] == 0 && group_ptr[g] == out.len(),
        "group pointers must cover the output slice"
    );
    assert_eq!(cost.len(), g + 1, "one cost entry per group plus a total");
    assert!(!scratch.is_empty(), "need at least one scratch slot");
    debug_assert!(group_ptr.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(cost.windows(2).all(|w| w[0] <= w[1]));
    let total = cost[g] - cost[0];
    let t = threads().min(scratch.len()).min(g.max(1));
    if t <= 1 || total < PARALLEL_NNZ_CUTOFF {
        if g > 0 {
            body(0..g, out, &mut scratch[0]);
        }
        return;
    }
    let sobs = ScopeObs::new("par.for_each_grouped_chunk", t);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let scratch_ptr = SendPtr(scratch.as_mut_ptr());
    // Group fence after chunk k − 1: the group count whose cumulative
    // cost first exceeds k equal shares of the total. `partition_point`
    // is monotone in the target, so each worker computes both of its own
    // fences independently and they never decrease; the last fence is
    // forced to `g` so zero-cost tails are covered.
    let bound = |k: usize| -> usize {
        if k == 0 {
            0
        } else if k == t {
            g
        } else {
            let target = cost[0] + ((total as u128 * k as u128) / t as u128) as usize;
            cost[1..=g].partition_point(|&w| w <= target)
        }
    };
    let task = |w: usize| {
        let (s, e) = (bound(w), bound(w + 1));
        if s == e {
            return;
        }
        ScopeObs::run(sobs.as_ref(), w, w != 0, || {
            let (o0, o1) = (group_ptr[s], group_ptr[e]);
            // SAFETY: group fences are non-decreasing in w (disjoint
            // output ranges) and each worker index owns scratch slot w.
            let chunk = unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(o0), o1 - o0) };
            let slot = unsafe { &mut *scratch_ptr.get().add(w) };
            body(s..e, chunk, slot);
        });
    };
    run_pooled(t, &task);
    ScopeObs::finish(sobs, t);
}

/// Maps fixed-size chunks of `0..n` and returns the per-chunk results in
/// ascending chunk order.
///
/// `chunk` must be a pure function of the problem (a constant, or derived
/// from `n`), never of the thread count: the chunk geometry — and hence
/// any floating-point combine the caller performs over the returned
/// vector — is then identical for every thread count. Workers pull chunk
/// indices from a shared cursor, so load imbalance does not serialize the
/// pool.
pub fn map_chunks<R, F>(n: usize, chunk: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk >= 1, "chunk size must be at least 1");
    if n == 0 {
        return Vec::new();
    }
    let k = n.div_ceil(chunk);
    let range = |i: usize| i * chunk..((i + 1) * chunk).min(n);
    let t = threads().min(k);
    if t <= 1 || n < PARALLEL_CUTOFF {
        return (0..k).map(|i| body(range(i))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(k);
    slots.resize_with(k, || None);
    let sobs = ScopeObs::new("par.map_chunks", t);
    {
        let slots_ptr = SendPtr(slots.as_mut_ptr());
        let task = |w: usize| {
            ScopeObs::run(sobs.as_ref(), w, w != 0, || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= k {
                    break;
                }
                let r = body(range(i));
                // SAFETY: the cursor hands index i to exactly one worker;
                // writing over the prepared `None` needs no drop.
                unsafe { slots_ptr.get().add(i).write(Some(r)) };
            })
        };
        run_pooled(t, &task);
    }
    ScopeObs::finish(sobs, t);
    slots
        .into_iter()
        .map(|r| r.expect("every chunk computed"))
        .collect()
}

/// Runs `k` independent tasks and returns their results in task order.
///
/// Tasks always fan out across the worker pool regardless of `k` (there
/// is no size cutoff — callers use this for coarse-grained work such as
/// Monte-Carlo shards where each task is expensive).
pub fn map_tasks<R, F>(k: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if k == 0 {
        return Vec::new();
    }
    let t = threads().min(k);
    if t <= 1 {
        return (0..k).map(&body).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(k);
    slots.resize_with(k, || None);
    let sobs = ScopeObs::new("par.map_tasks", t);
    {
        let slots_ptr = SendPtr(slots.as_mut_ptr());
        let task = |w: usize| {
            ScopeObs::run(sobs.as_ref(), w, w != 0, || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= k {
                    break;
                }
                let r = body(i);
                // SAFETY: the cursor hands index i to exactly one worker;
                // writing over the prepared `None` needs no drop.
                unsafe { slots_ptr.get().add(i).write(Some(r)) };
            })
        };
        run_pooled(t, &task);
    }
    ScopeObs::finish(sobs, t);
    slots
        .into_iter()
        .map(|r| r.expect("every task computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution_override_wins() {
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }

    /// The override is scoped to the calling thread: a thread spawned
    /// while it is in force still resolves the default.
    #[test]
    fn override_does_not_leak_to_other_threads() {
        let default = threads();
        set_threads(Some(default + 1));
        let seen = std::thread::spawn(threads).join().unwrap();
        assert_eq!(threads(), default + 1);
        assert_eq!(seen, default);
    }

    #[test]
    fn chunked_mut_covers_every_element_once() {
        set_threads(Some(4));
        let n = PARALLEL_CUTOFF + 37;
        let mut out = vec![0usize; n];
        for_each_chunk_mut(&mut out, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn aligned_chunks_respect_block_boundaries() {
        set_threads(Some(3));
        let block = 16;
        let n = PARALLEL_CUTOFF + 7 * block;
        let mut out = vec![0usize; n];
        for_each_chunk_aligned_mut(&mut out, block, |start, chunk| {
            assert_eq!(start % block, 0);
            assert_eq!(chunk.len() % block, 0);
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn grouped_chunks_cover_every_group_once_on_boundaries() {
        set_threads(Some(4));
        // Variable-width groups with skewed costs: heavy groups up front,
        // a zero-cost tail only the forced final boundary can cover.
        let groups = 3000;
        let mut group_ptr = Vec::with_capacity(groups + 1);
        let mut cost = Vec::with_capacity(groups + 1);
        let (mut off, mut acc) = (0usize, 0usize);
        group_ptr.push(off);
        cost.push(acc);
        for gi in 0..groups {
            off += 1 + gi % 5;
            acc += if gi < 80 {
                2000
            } else if gi < groups - 50 {
                7
            } else {
                0
            };
            group_ptr.push(off);
            cost.push(acc);
        }
        assert!(acc >= PARALLEL_NNZ_CUTOFF);
        let mut out = vec![usize::MAX; off];
        let mut scratch = vec![0usize; threads()];
        for_each_grouped_chunk_mut(&mut out, &group_ptr, &cost, &mut scratch, |gr, chunk, s| {
            // The chunk starts exactly at the first group's boundary.
            assert_eq!(chunk.len(), group_ptr[gr.end] - group_ptr[gr.start]);
            let base = group_ptr[gr.start];
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = base + k;
            }
            *s += gr.len();
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
        // Every group was visited exactly once across all scratch slots.
        assert_eq!(scratch.iter().sum::<usize>(), groups);
    }

    #[test]
    fn grouped_chunks_serial_below_cost_gate() {
        set_threads(Some(4));
        let groups = 512;
        let group_ptr: Vec<usize> = (0..=groups).map(|i| i * 3).collect();
        let cost: Vec<usize> = (0..=groups).map(|i| i * 2).collect();
        assert!(cost[groups] < PARALLEL_NNZ_CUTOFF);
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let mut out = vec![0u8; groups * 3];
        let mut scratch = vec![(); 4];
        for_each_grouped_chunk_mut(&mut out, &group_ptr, &cost, &mut scratch, |_, _, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn map_chunks_is_ordered_and_complete() {
        set_threads(Some(4));
        let n = PARALLEL_CUTOFF * 2 + 11;
        let parts = map_chunks(n, 1000, |r| r.len());
        assert_eq!(parts.iter().sum::<usize>(), n);
        // Every chunk except the last has the fixed size.
        assert!(parts[..parts.len() - 1].iter().all(|&l| l == 1000));
    }

    #[test]
    fn map_tasks_preserves_order() {
        set_threads(Some(4));
        let out = map_tasks(33, |i| i * i);
        assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
    }

    /// Runs `body` in a child copy of this test binary with only the test
    /// `name` selected, so no sibling test's records or dispatches reach
    /// the process-wide state it reads (the installed obs sink, the live
    /// helper threads).
    fn run_alone(name: &str, body: fn()) {
        const SELECTED: &str = "STOCHCDR_TEST_ALONE";
        if std::env::var(SELECTED).as_deref() == Ok(name) {
            return body();
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([name, "--exact", "--test-threads=1", "--nocapture"])
            .env(SELECTED, name)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{name} failed when run alone:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn parallel_kernels_profile_their_workers() {
        run_alone("par::tests::parallel_kernels_profile_their_workers", || {
            set_threads(Some(4));
            obs::install(Box::new(obs::SummarySink::new()));
            let mut out = vec![0.0f64; PARALLEL_CUTOFF * 2];
            for_each_chunk_mut(&mut out, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as f64;
                }
            });
            let _sums = map_chunks(PARALLEL_CUTOFF * 2, 4096, |r| r.len());
            let report = obs::uninstall().and_then(|mut s| s.finish()).unwrap();
            assert!(report.contains("par.worker"), "{report}");
            assert!(report.contains("par.utilization"), "{report}");
            assert!(report.contains("par.worker.busy_ns"), "{report}");
            assert!(report.contains("par.for_each_chunk"), "{report}");
            assert!(report.contains("par.map_chunks"), "{report}");
        });
    }

    /// Regression for the utilization denominator: a balanced
    /// compute-bound dispatch must read as a busy pool now that
    /// wake-up/join are out of the denominator (the old full-wall
    /// version averaged ~0.2 on short dispatches regardless of balance).
    /// A retry loop keeps transient scheduler preemption (shared CI
    /// runners) from failing the assertion: genuine undercounting
    /// repeats on every attempt, noise does not.
    #[test]
    fn utilization_measures_busy_window_not_spinup() {
        run_alone(
            "par::tests::utilization_measures_busy_window_not_spinup",
            || {
                set_threads(Some(4));
                let n = PARALLEL_CUTOFF * 4;
                let mut best = 0.0f64;
                for _ in 0..5 {
                    let (sink, buf) = obs::JsonLinesSink::to_shared_buffer();
                    obs::install(Box::new(sink));
                    // Heavy enough per worker (~ms) that dispatch wake-up skew
                    // is a small fraction of the busy window.
                    let parts = map_chunks(n, n / 64, |r| {
                        let mut acc = 0.0f64;
                        for i in r {
                            let mut x = (i as f64).sqrt();
                            for _ in 0..24 {
                                x = (x + 1.5).sin() * (x + 2.5).cos() + x.abs().sqrt();
                            }
                            acc += x;
                        }
                        acc
                    });
                    obs::uninstall();
                    assert_eq!(parts.len(), 64);
                    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
                    let art = obs::artifact::Artifact::load_jsonl(&text).unwrap();
                    let util = art.gauges["par.utilization"];
                    assert!(
                        (0.0..=1.0).contains(&util),
                        "utilization {util} out of range"
                    );
                    best = best.max(util);
                    if best > 0.5 {
                        break;
                    }
                }
                assert!(
                    best > 0.5,
                    "balanced dispatch utilization peaked at {best}; \
                 wake-up is back in the denominator"
                );
            },
        );
    }

    #[test]
    fn reduction_is_thread_count_invariant() {
        let n = PARALLEL_CUTOFF * 3 + 5;
        let data: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sum_with = |t: usize| {
            set_threads(Some(t));
            let parts = map_chunks(n, 4096, |r| data[r].iter().sum::<f64>());
            parts.iter().sum::<f64>()
        };
        let s1 = sum_with(1);
        for t in [2, 3, 8] {
            assert_eq!(s1.to_bits(), sum_with(t).to_bits());
        }
    }

    // -- RowPartition ------------------------------------------------------

    /// Skewed CSR-like prefix: heavy rows up front, light middle, empty
    /// tail.
    fn skewed_prefix(n: usize) -> Vec<usize> {
        let mut prefix = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        prefix.push(acc);
        for i in 0..n {
            acc += if i < 40 {
                3000
            } else if i < n - 128 {
                5
            } else {
                0
            };
            prefix.push(acc);
        }
        prefix
    }

    #[test]
    fn row_partition_covers_every_row_exactly_once() {
        let prefix = skewed_prefix(20_000);
        let part = RowPartition::from_weight_prefix(&prefix);
        let b = part.bounds();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 20_000);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "fence must be strict");
        let covered: usize = (0..part.blocks()).map(|k| part.block(k).len()).sum();
        assert_eq!(covered, part.rows());
        assert_eq!(part.total_weight(), prefix[20_000]);
    }

    #[test]
    fn row_partition_blocks_are_weight_balanced() {
        // Uniform-ish weights: every block must land within one maximal
        // row of the ideal share (the documented balance bound).
        let n = 50_000;
        let prefix: Vec<usize> = (0..=n).map(|i| i * 11).collect();
        let part = RowPartition::from_weight_prefix(&prefix);
        assert!(part.blocks() > 1, "enough weight to split");
        let ideal = part.total_weight() as f64 / part.blocks() as f64;
        for k in 0..part.blocks() {
            let r = part.block(k);
            let w = (prefix[r.end] - prefix[r.start]) as f64;
            assert!(
                (w - ideal).abs() <= 11.0,
                "block {k} weight {w} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn row_partition_is_thread_count_independent() {
        // The fence is a pure function of the weights: building it never
        // consults `threads()`.
        let prefix = skewed_prefix(10_000);
        set_threads(Some(1));
        let p1 = RowPartition::from_weight_prefix(&prefix);
        set_threads(Some(7));
        let p7 = RowPartition::from_weight_prefix(&prefix);
        assert_eq!(p1, p7);
    }

    #[test]
    fn row_partition_edge_cases() {
        // Empty: one empty block.
        let empty = RowPartition::from_weight_prefix(&[0]);
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.blocks(), 1);
        assert_eq!(empty.block(0), 0..0);

        // Single heavy row: cannot split below a row.
        let single = RowPartition::from_weight_prefix(&[0, 10 * PARTITION_BLOCK_WEIGHT]);
        assert_eq!(single.rows(), 1);
        assert_eq!(single.blocks(), 1);

        // All weight in one middle row: the fence collapses duplicate
        // boundaries instead of emitting empty blocks.
        let n = 1000;
        let mut prefix = vec![0usize; n + 1];
        for (i, p) in prefix.iter_mut().enumerate() {
            *p = if i > n / 2 {
                20 * PARTITION_BLOCK_WEIGHT
            } else {
                0
            };
        }
        let spike = RowPartition::from_weight_prefix(&prefix);
        assert_eq!(spike.rows(), n);
        assert!(spike.bounds().windows(2).all(|w| w[0] < w[1]));
        let covered: usize = (0..spike.blocks()).map(|k| spike.block(k).len()).sum();
        assert_eq!(covered, n);
    }

    #[test]
    fn partition_kernel_covers_every_element_once() {
        set_threads(Some(4));
        let n = 30_000;
        let prefix = skewed_prefix(n);
        assert!(prefix[n] >= PARALLEL_NNZ_CUTOFF);
        let part = RowPartition::from_weight_prefix(&prefix);
        let mut out = vec![0usize; n];
        for_each_partition_mut(&mut out, &part, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn partition_kernel_serial_below_weight_gate() {
        set_threads(Some(4));
        let n = 4096;
        let prefix: Vec<usize> = (0..=n).map(|i| i * (PARALLEL_NNZ_CUTOFF - 1) / n).collect();
        let part = RowPartition::from_weight_prefix(&prefix);
        assert!(part.total_weight() < PARALLEL_NNZ_CUTOFF);
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let mut out = vec![0u8; n];
        for_each_partition_mut(&mut out, &part, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn partition_kernel_is_thread_count_invariant() {
        let n = 40_000;
        let prefix = skewed_prefix(n);
        let part = RowPartition::from_weight_prefix(&prefix);
        let run_with = |t: usize| {
            set_threads(Some(t));
            let mut out = vec![0.0f64; n];
            for_each_partition_mut(&mut out, &part, |start, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    let i = start + k;
                    *v = (i as f64).sqrt().sin() + 1.0 / (i as f64 + 1.0);
                }
            });
            out
        };
        let r1 = run_with(1);
        for t in [2, 4, 8] {
            let rt = run_with(t);
            assert!(
                r1.iter().zip(&rt).all(|(a, b)| a.to_bits() == b.to_bits()),
                "partition kernel drifted at t={t}"
            );
        }
    }

    // -- Persistent pool ---------------------------------------------------

    /// Live thread count of this process (Linux procfs).
    fn process_threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0)
    }

    #[test]
    fn pool_workers_persist_across_dispatches() {
        run_alone("par::tests::pool_workers_persist_across_dispatches", || {
            set_threads(Some(4));
            prewarm();
            let mut out = vec![0usize; PARALLEL_CUTOFF * 2];
            let fill = |out: &mut [usize]| {
                for_each_chunk_mut(out, |start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = start + k;
                    }
                })
            };
            fill(&mut out);
            let after_first = process_threads();
            for _ in 0..10 {
                fill(&mut out);
            }
            let after_many = process_threads();
            assert!(out.iter().enumerate().all(|(i, &v)| v == i));
            if after_first > 0 {
                assert_eq!(
                    after_first, after_many,
                    "pool respawned threads between dispatches"
                );
            }
        });
    }

    #[test]
    fn nested_dispatch_runs_serially_and_correctly() {
        set_threads(Some(4));
        // Outer fan-out holds the dispatch lock; inner kernels above the
        // cutoff must detect it and run serial shares with identical
        // results.
        let n = PARALLEL_CUTOFF * 2;
        let sums = map_tasks(4, |task| {
            let mut out = vec![0.0f64; n];
            for_each_chunk_mut(&mut out, |start, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (task * n + start + k) as f64;
                }
            });
            out.iter().sum::<f64>()
        });
        let expect: Vec<f64> = (0..4)
            .map(|task| (0..n).map(|i| (task * n + i) as f64).sum::<f64>())
            .collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        set_threads(Some(4));
        let n = PARALLEL_CUTOFF * 2;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut out = vec![0u8; n];
            for_each_chunk_mut(&mut out, |start, _| {
                if start >= n / 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate");
        // The pool must keep dispatching correctly afterwards.
        let mut out = vec![0usize; n];
        for_each_chunk_mut(&mut out, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }
}
