//! Cache-invalidation accounting, cross-checked against the obs counter
//! stream. The obs sink is process-global and sweep counters are emitted
//! on `par` pool workers, so no thread-scoped capture can tell this
//! sweep's counters from a sibling test's: the test runs alone in this
//! binary's process.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use common::drift_spec;
use stochcdr_obs as obs;
use stochcdr_obs::{Record, Sink};
use stochcdr_sweep::{run_with, FactorCache};

/// Aggregates obs counters by name.
#[derive(Default)]
struct CounterSink {
    totals: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl Sink for CounterSink {
    fn record(&mut self, _at_nanos: u64, record: &Record<'_>) {
        if let Record::Counter { name, delta } = record {
            *self
                .totals
                .lock()
                .unwrap()
                .entry((*name).to_string())
                .or_insert(0) += delta;
        }
    }
}

#[test]
fn cache_counters_cross_check_with_obs_stream() {
    let totals = Arc::new(Mutex::new(BTreeMap::new()));
    obs::install(Box::new(CounterSink {
        totals: Arc::clone(&totals),
    }));

    let spec = drift_spec();
    let cache = FactorCache::new();
    let points = run_with(&spec, &cache).unwrap();
    let stats = cache.stats();
    obs::uninstall();

    let totals = totals.lock().unwrap();
    let get = |k: &str| totals.get(k).copied().unwrap_or(0);

    // The programmatic stats and the counter stream are two views of the
    // same accesses; they must agree exactly.
    assert_eq!(get("fsm.factor_cache.hit"), stats.hits);
    assert_eq!(get("fsm.factor_cache.miss"), stats.misses);
    assert_eq!(get("sweep.points"), points.len() as u64);
    assert_eq!(get("sweep.runs"), 1);

    // Per-kind counters decompose the totals.
    let hit_by_kind: u64 = stats.by_kind.values().map(|k| k.hits).sum();
    let miss_by_kind: u64 = stats.by_kind.values().map(|k| k.misses).sum();
    assert_eq!(hit_by_kind, stats.hits);
    assert_eq!(miss_by_kind, stats.misses);
    for (kind, ks) in &stats.by_kind {
        assert_eq!(
            get(&format!("fsm.factor_cache.hit.{kind}")),
            ks.hits,
            "kind {kind}"
        );
        assert_eq!(
            get(&format!("fsm.factor_cache.miss.{kind}")),
            ks.misses,
            "kind {kind}"
        );
    }

    // Invalidation: the drift axis must rebuild only the drift pmf.
    assert_eq!(stats.by_kind["acc.nr"].misses, spec.points() as u64);
    assert_eq!(stats.by_kind["row.skeleton"].misses, 1);
}
