//! Metric tables, the result record, and its two renderings: a readable
//! table and the one-line JSON result the run ends with.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`. Same order and
/// units as `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("point_p50_s", "s"),
    ("point_p90_s", "s"),
    ("points_per_s", "1/s"),
    ("product_solve_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. Same order and
/// units as `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("assembly.build_s", "s"),
    ("assembly.nnz_per_s", "1/s"),
    ("assembly.alloc_bytes", "bytes"),
    ("mg.setup_s", "s"),
    ("mg.setup_alloc_bytes", "bytes"),
    ("mg.cycles", "count"),
    ("mg.cycle_equivalents", "count"),
    ("mg.cycle_s", "s"),
    ("mg.refresh_s", "s"),
    ("mg.smooth_s", "s"),
    ("mg.coarse_s", "s"),
    ("mg.disaggregate_s", "s"),
    ("mg.residual_s", "s"),
    ("markov.view_s", "s"),
    ("kernel.csr_step_s", "s"),
    ("kernel.gather_s", "s"),
    ("kernel.kron_shuffle_s", "s"),
    ("kernel.csr_step_entries_per_s", "1/s"),
    ("kernel.gather_entries_per_s", "1/s"),
    ("kernel.kron_shuffle_entries_per_s", "1/s"),
    ("kernel.csr_step_bytes", "bytes"),
    ("kernel.gather_bytes", "bytes"),
    ("kernel.kron_shuffle_bytes", "bytes"),
    ("kernel.stream_gbps", "GB/s"),
    ("kernel.csr_step_bw_frac", "ratio"),
    ("par.spmv_speedup", "ratio"),
    ("sweep.cache_hit_rate", "ratio"),
    ("sweep.plan_hits", "count"),
    ("sweep.warm_share", "ratio"),
    ("sweep.form_s", "s"),
    ("sweep.solve_s", "s"),
    ("sweep.mean_iterations", "count"),
    ("measures.s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The metric table a mode reports.
pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    values: Vec<Option<f64>>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Free-form lines for the readable table (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            values: vec![None; table(trace).len()],
            attempted: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Records a metric of this mode's table. Metrics of the other mode
    /// are ignored, so workload code can set both unconditionally.
    pub fn set(&mut self, name: &str, value: f64) {
        let other = table(!self.trace);
        match table(self.trace).iter().position(|(n, _)| *n == name) {
            Some(i) => self.values[i] = Some(value),
            None => assert!(
                other.iter().any(|(n, _)| *n == name),
                "metric {name} is not in BENCHMARK.json"
            ),
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one failed operation (a program error or a failed check).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Checks one condition on an operation's output; a miss is a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Each metric of the table with its value; a metric the workload does
    /// not measure reads 0.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, &'static str, f64, bool)> + '_ {
        table(self.trace)
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| (name, unit, v.unwrap_or(0.0), v.is_some()))
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.attempted >= 1
            && self.metrics().all(|(_, _, v, _)| v.is_finite())
    }

    /// The readable table printed above the JSON line.
    pub fn render_table(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for (name, unit, v, measured) in self.metrics() {
            let tag = if measured {
                ""
            } else {
                "  (not measured on this workload)"
            };
            let _ = writeln!(out, "  {name:<36} {v:>14.6e} {unit}{tag}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  # {n}");
        }
        let _ = writeln!(
            out,
            "  operations: {} attempted, {} failed",
            self.attempted,
            self.failed()
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed().min(self.attempted.max(1)),
        );
        for (i, (name, unit, v, _)) in self.metrics().enumerate() {
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochcdr_obs::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str).expect("name");
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.to_string(), unit.to_string())
                })
                .collect(),
            _ => panic!("{key} is not an array"),
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&json, key), want, "{key}");
        }
    }

    #[test]
    fn every_printed_metric_is_declared() {
        let json = benchmark_json();
        for trace in [false, true] {
            let mut r = Report::new(trace);
            r.attempted = 3;
            for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
                r.set(name, 1.5);
            }
            let line = Json::parse(&r.render_json()).expect("result line is JSON");
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("metrics object")
            };
            let key = if trace { "per_layer" } else { "end_to_end" };
            let declared = declared(&json, key);
            assert_eq!(metrics.len(), declared.len());
            for (name, unit) in &declared {
                let m = &metrics[name];
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
            }
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn undeclared_metric_is_rejected() {
        Report::new(false).set("made_up_s", 1.0);
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::new(false);
        r.attempted = 2;
        r.check(false, || "residual".into());
        assert!(!r.correct());
        assert_eq!(r.failed(), 1);
        assert!(r.render_json().contains("\"failed\": 1"));
    }
}
