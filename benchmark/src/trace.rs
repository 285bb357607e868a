//! The benchmark's own span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer's public functions
//! (nothing inside the program is instrumented). Each span records its
//! name, the operation it belongs to, its parent, its duration, and the
//! bytes the process allocated meanwhile (from the tracking allocator's
//! counters). A span's self time is its duration minus that of its
//! direct children. Spans stay in memory until the run reports.

use std::time::Instant;

use stochcdr_obs as obs;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub secs: f64,
    pub child_secs: f64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn self_secs(&self) -> f64 {
        (self.secs - self.child_secs).max(0.0)
    }
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new operation; later spans are charged to it.
    pub fn next_op(&mut self) {
        self.ops += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` (nested spans go through the
    /// tracer handed to `f`).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            op: self.ops.saturating_sub(1),
            parent,
            secs: 0.0,
            child_secs: 0.0,
            alloc_bytes: 0,
        });
        self.stack.push(idx);
        let a0 = obs::mem::total_bytes();
        let t0 = Instant::now();
        let out = f(self);
        let secs = t0.elapsed().as_secs_f64();
        let alloc = obs::mem::total_bytes().saturating_sub(a0);
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.secs = secs;
        span.alloc_bytes = alloc;
        if let Some(p) = parent {
            self.spans[p].child_secs += secs;
        }
        out
    }

    /// One line per span name, in first-seen order: its parent's name,
    /// calls, and total self and wall seconds.
    pub fn summary(&self) -> Vec<String> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let of: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
                let parent = of[0].parent.map_or("-", |p| self.spans[p].name);
                let self_s: f64 = of.iter().map(|s| s.self_secs()).sum();
                let wall: f64 = of.iter().map(|s| s.secs).sum();
                format!(
                    "span {name:<18} under {parent:<10} calls {:>4}  self {self_s:>10.4} s  wall {wall:>10.4} s",
                    of.len()
                )
            })
            .collect()
    }

    /// Per-operation sums of `value` over the spans named in `names`
    /// (one layer's calls), one entry per operation; operations without
    /// such a span contribute 0.
    pub fn per_op(&self, names: &[&str], value: impl Fn(&Span) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.ops];
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            out[s.op] += value(s);
        }
        out
    }

    /// Per-operation self time of the spans in `names`.
    pub fn self_secs(&self, names: &[&str]) -> Vec<f64> {
        self.per_op(names, Span::self_secs)
    }

    /// Per-operation bytes allocated inside the spans in `names`.
    pub fn alloc_bytes(&self, names: &[&str]) -> Vec<f64> {
        self.per_op(names, |s| s.alloc_bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("op.root", |t| {
            t.span("mg.child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let root = &t.spans()[0];
        let child = &t.spans()[1];
        assert_eq!(child.parent, Some(0));
        assert!(root.secs >= child.secs);
        assert!((root.self_secs() - (root.secs - child.secs)).abs() < 1e-12);
        assert_eq!(t.self_secs(&["mg.child"]).len(), 1);
        assert!(t.self_secs(&["mg.child"])[0] >= 0.02);
        assert_eq!(t.self_secs(&["assembly.build"]), vec![0.0]);
        let lines = t.summary();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("mg.child") && lines[1].contains("under op.root"));
    }
}
