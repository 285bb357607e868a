//! Memory accounting: a zero-dependency tracking allocator and a soft
//! memory budget.
//!
//! [`TrackingAlloc`] wraps the system allocator and maintains process
//! totals (live bytes, cumulative bytes, allocation count, high-water
//! mark) plus per-thread monotone counters, all in atomics and
//! const-initialized thread-local cells — the hooks never lock, never
//! allocate, and never re-enter the instrumentation facade, so they are
//! safe inside `GlobalAlloc` and add only a few relaxed atomic ops per
//! allocation. Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: stochcdr_obs::mem::TrackingAlloc = stochcdr_obs::mem::TrackingAlloc::new();
//! ```
//!
//! With the allocator installed, every completed span record carries the
//! bytes and allocation count charged to it on its own thread (see
//! [`Record::Span`](crate::Record)'s `alloc_bytes`/`allocs` fields, new
//! in schema `stochcdr-obs/3`); without it the counters read zero and
//! the fields are inert. Attribution is per-thread: work a span hands to
//! pool workers is charged to the workers' own `par.worker` spans.
//!
//! The *soft* memory budget ([`set_budget`]) never fails allocations —
//! callers that are about to materialize a large intermediate (the
//! Kronecker path) ask [`check_budget`] first and refuse on their own
//! terms; the check emits a `mem.budget_exceeded` event so the refusal
//! is visible in artifacts.
//!
//! The `alloc-track` cargo feature (default on) compiles the accounting
//! in; with the feature disabled [`TrackingAlloc`] degrades to a plain
//! pass-through to [`System`] and every counter reads zero.

use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(feature = "alloc-track")]
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Currently live (allocated and not yet freed) bytes.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`]; reset with [`reset_peak`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocation count (allocs + growing reallocs).
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocated bytes (monotone).
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Soft budget in bytes; 0 = unset.
static BUDGET_BYTES: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "alloc-track")]
thread_local! {
    /// Monotone per-thread allocated bytes (const-init: no lazy branch,
    /// no allocation, safe to touch from inside the allocator).
    static T_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Monotone per-thread allocation count.
    static T_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// A tracking wrapper around the system allocator.
///
/// See the [module docs](self) for the accounting model. All methods
/// forward to [`System`]; the wrapper only updates counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// Creates the (stateless) wrapper; usable in a `static`.
    pub const fn new() -> Self {
        TrackingAlloc
    }
}

#[cfg(feature = "alloc-track")]
#[inline]
fn note_alloc(size: u64) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    // `try_with` so a dealloc-during-TLS-teardown path cannot abort; the
    // process totals above are always exact.
    let _ = T_BYTES.try_with(|c| c.set(c.get() + size));
    let _ = T_COUNT.try_with(|c| c.set(c.get() + 1));
}

#[cfg(feature = "alloc-track")]
#[inline]
fn note_dealloc(size: u64) {
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
}

#[cfg(not(feature = "alloc-track"))]
#[inline]
fn note_alloc(_size: u64) {}

#[cfg(not(feature = "alloc-track"))]
#[inline]
fn note_dealloc(_size: u64) {}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                // A growing realloc is an allocation event (it may move
                // and copy); count it like the counting-allocator tests
                // always did.
                note_alloc(new - old);
            } else {
                note_dealloc(old - new);
            }
        }
        p
    }
}

/// Whether a [`TrackingAlloc`] is live in this process (heuristic: any
/// allocation has been observed). Zero-allocation processes don't exist
/// in practice by the time instrumented code runs.
pub fn tracking_active() -> bool {
    ALLOC_COUNT.load(Ordering::Relaxed) > 0
}

/// Currently live heap bytes (0 unless a [`TrackingAlloc`] is installed).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since process start (or the last
/// [`reset_peak`]).
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Cumulative allocation count.
pub fn alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Cumulative allocated bytes (monotone; never decremented by frees).
pub fn total_bytes() -> u64 {
    TOTAL_BYTES.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size, so a phase can
/// measure its own peak: `reset_peak(); work(); peak_bytes()`.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// A snapshot of this thread's monotone allocation counters; subtract
/// two marks to charge the interval (see [`thread_mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadAllocMark {
    bytes: u64,
    count: u64,
}

/// Captures this thread's current allocation counters. Allocation-free.
#[inline]
pub fn thread_mark() -> ThreadAllocMark {
    #[cfg(feature = "alloc-track")]
    {
        let bytes = T_BYTES.try_with(Cell::get).unwrap_or(0);
        let count = T_COUNT.try_with(Cell::get).unwrap_or(0);
        ThreadAllocMark { bytes, count }
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        ThreadAllocMark { bytes: 0, count: 0 }
    }
}

impl ThreadAllocMark {
    /// `(bytes, allocations)` charged to this thread since the mark.
    #[inline]
    pub fn delta(&self) -> (u64, u64) {
        let now = thread_mark();
        (
            now.bytes.saturating_sub(self.bytes),
            now.count.saturating_sub(self.count),
        )
    }
}

/// Sets (or clears, with `None`) the process-wide soft memory budget.
///
/// When instrumentation is enabled the new value is published as the
/// `mem.budget_bytes` gauge (0 on clear).
pub fn set_budget(bytes: Option<u64>) {
    BUDGET_BYTES.store(bytes.unwrap_or(0), Ordering::Relaxed);
    if crate::enabled() {
        crate::gauge("mem.budget_bytes", bytes.unwrap_or(0) as f64);
    }
}

/// The current soft budget, if one is set.
pub fn budget() -> Option<u64> {
    match BUDGET_BYTES.load(Ordering::Relaxed) {
        0 => None,
        b => Some(b),
    }
}

/// Whether allocating `extra_bytes` on top of the current live size
/// would cross the soft budget. Always `false` with no budget set.
pub fn would_exceed(extra_bytes: u64) -> bool {
    match budget() {
        Some(b) => live_bytes().saturating_add(extra_bytes) > b,
        None => false,
    }
}

/// Soft-limit check for a caller about to allocate `extra_bytes` for
/// `what`: returns `true` when within budget (or no budget is set).
/// On a would-exceed it emits a `mem.budget_exceeded` event and returns
/// `false` — the caller decides whether to refuse; nothing is enforced.
pub fn check_budget(what: &str, extra_bytes: u64) -> bool {
    if !would_exceed(extra_bytes) {
        return true;
    }
    if crate::enabled() {
        crate::event(
            "mem.budget_exceeded",
            &[
                ("what", what.into()),
                ("requested_bytes", extra_bytes.into()),
                ("live_bytes", live_bytes().into()),
                ("budget_bytes", budget().unwrap_or(0).into()),
            ],
        );
    }
    false
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where unavailable. Allocates — call at
/// publish points, never from hot paths.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        proc_status_kib("VmHWM:").map_or(0, |kib| kib * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Resets the kernel's resident-set high-water mark so a following
/// [`peak_rss_bytes`] reads the peak of *this phase* rather than the
/// whole process history (writes `5` to `/proc/self/clear_refs`).
/// Returns `true` on success; `false` (and changes nothing) where the
/// mechanism is unavailable. The current RSS is untouched — only the
/// recorded maximum restarts from it.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(target_os = "linux")]
fn proc_status_kib(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Publishes the process memory gauges (`mem.live_bytes`,
/// `mem.peak_bytes`, `mem.alloc_count`, `mem.peak_rss`, and
/// `mem.budget_bytes` when a budget is set) to the installed sink.
/// No-op when instrumentation is disabled.
pub fn publish() {
    if !crate::enabled() {
        return;
    }
    crate::gauge("mem.live_bytes", live_bytes() as f64);
    crate::gauge("mem.peak_bytes", peak_bytes() as f64);
    crate::gauge("mem.alloc_count", alloc_count() as f64);
    crate::gauge("mem.peak_rss", peak_rss_bytes() as f64);
    if let Some(b) = budget() {
        crate::gauge("mem.budget_bytes", b as f64);
    }
}

/// Smallest allocation-count delta observed across `attempts` runs of
/// `f` — the one allocator-assertion helper shared by the workspace's
/// no-alloc tests.
///
/// Counts only the calling thread's allocations ([`thread_mark`]), so a
/// concurrent test-harness thread cannot leak into the measurement; work
/// `f` hands to other threads is not counted either, so callers keep the
/// measured work on the calling thread. A genuine allocation in the code
/// under test repeats on every attempt, so the minimum is the honest
/// figure. Returns 0 vacuously when no [`TrackingAlloc`] is installed —
/// callers should assert [`tracking_active`] first.
pub fn min_alloc_delta<F: FnMut()>(mut f: F, attempts: usize) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..attempts.max(1) {
        let mark = thread_mark();
        f();
        let delta = mark.delta().1;
        best = best.min(delta);
        if best == 0 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests exercise the budget logic and marks without relying on
    // the global allocator (the unit-test binary installs the plain
    // system allocator); allocator-integration coverage lives in
    // `tests/no_alloc.rs`, which does install [`TrackingAlloc`].

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reset_restarts_the_high_water_mark() {
        // Push the high-water mark well above steady state, release, and
        // reset: the recorded peak must fall back toward current RSS
        // (large frees return to the kernel via munmap). Generous bound —
        // other tests in this process allocate too.
        let before_alloc = peak_rss_bytes();
        let big = vec![1u8; 256 << 20];
        std::hint::black_box(&big[128 << 20]);
        let inflated = peak_rss_bytes();
        assert!(inflated >= before_alloc + (200 << 20));
        drop(big);
        assert!(reset_peak_rss(), "clear_refs unavailable");
        let after = peak_rss_bytes();
        assert!(after > 0);
        assert!(
            after < inflated - (200 << 20),
            "peak did not drop: {inflated} -> {after}"
        );
    }

    #[test]
    fn budget_round_trips_and_checks() {
        set_budget(None);
        assert_eq!(budget(), None);
        assert!(!would_exceed(u64::MAX / 2));
        assert!(check_budget("anything", u64::MAX / 2));

        set_budget(Some(1 << 20));
        assert_eq!(budget(), Some(1 << 20));
        assert!(would_exceed(u64::MAX / 2));
        assert!(!check_budget("huge", u64::MAX / 2));
        assert!(check_budget("tiny", 0));
        set_budget(None);
    }

    #[test]
    fn thread_mark_delta_is_monotone() {
        let mark = thread_mark();
        let (bytes, count) = mark.delta();
        // No tracking allocator in this binary: deltas stay zero.
        let _ = vec![0u8; 4096];
        let (bytes2, count2) = mark.delta();
        assert!(bytes2 >= bytes);
        assert!(count2 >= count);
    }
}
