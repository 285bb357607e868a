//! Property tests for variable-size strength aggregation.
//!
//! The coarsening contract: every state lands in exactly one aggregate,
//! aggregate sizes never exceed the configured bound, strict-pairs mode
//! is unchanged by the growth machinery, and the full
//! `levels_with_plans` output — partitions and symbolic plans — is a
//! pure function of the chain, bit-identical at any worker thread count.

use proptest::prelude::*;
use stochcdr_linalg::{par, CooMatrix};
use stochcdr_markov::StochasticMatrix;
use stochcdr_multigrid::StrengthCoarsening;

const N: usize = 24;

/// Random row-stochastic matrix on `N` states: every row gets a self
/// loop plus a few weighted targets, then normalizes.
fn chain() -> impl Strategy<Value = StochasticMatrix> {
    prop::collection::vec(
        (
            prop::collection::vec((0..N, 0.05f64..1.0), 1..5),
            0.05f64..1.0,
        ),
        N,
    )
    .prop_map(|rows| {
        let mut coo = CooMatrix::new(N, N);
        for (i, (targets, self_w)) in rows.into_iter().enumerate() {
            let total: f64 = self_w + targets.iter().map(|&(_, v)| v).sum::<f64>();
            coo.push(i, i, self_w / total);
            for (j, v) in targets {
                coo.push(i, j, v / total);
            }
            // A weak ring keeps the chain irreducible.
            coo.push(i, (i + 1) % N, 1e-3);
        }
        let m = coo.to_csr();
        let sums = m.row_sums();
        let factors: Vec<f64> = sums.iter().map(|s| 1.0 / s).collect();
        StochasticMatrix::new(m.scale_rows(&factors)).expect("rows normalized")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every state lands in exactly one aggregate and sizes respect the
    /// configured `2..=8` bound at every level of the hierarchy.
    #[test]
    fn aggregates_partition_the_states_within_the_size_bound(
        p in chain(),
        max in 2usize..=8,
    ) {
        let parts = StrengthCoarsening::until(4)
            .aggregates(max)
            .levels(&p)
            .expect("levels");
        let mut n = N;
        for part in &parts {
            prop_assert_eq!(part.n(), n);
            let mut sizes = vec![0usize; part.block_count()];
            for i in 0..part.n() {
                let b = part.block_of(i);
                prop_assert!(b < part.block_count());
                sizes[b] += 1;
            }
            // Exactly-one-aggregate coverage: block sizes add back up to
            // the level size, and no block is empty or over the bound.
            prop_assert_eq!(sizes.iter().sum::<usize>(), part.n());
            for &s in &sizes {
                prop_assert!(s >= 1 && s <= max, "aggregate size {} out of 1..={}", s, max);
            }
            // Coarsening must make progress (some aggregate has >= 2
            // states) or the loop in `levels` would never terminate.
            prop_assert!(part.block_count() < part.n());
            n = part.block_count();
        }
    }

    /// The growth machinery leaves strict-pairs mode (`aggregates(2)`)
    /// exactly where the historical pairwise matcher put it.
    #[test]
    fn pairwise_mode_is_unchanged_by_growth_machinery(p in chain()) {
        let plain = StrengthCoarsening::until(4).levels(&p).expect("plain");
        let capped = StrengthCoarsening::until(4)
            .aggregates(2)
            .levels(&p)
            .expect("capped");
        prop_assert_eq!(plain.len(), capped.len());
        for (a, b) in plain.iter().zip(&capped) {
            prop_assert_eq!(a.labels(), b.labels());
        }
    }

    /// `levels_with_plans` output is invariant to the worker thread
    /// count: partitions and symbolic plan patterns are bit-identical at
    /// 1 and 4 threads.
    #[test]
    fn levels_with_plans_is_thread_count_invariant(
        p in chain(),
        max in 2usize..=8,
    ) {
        par::set_threads(Some(1));
        let serial = StrengthCoarsening::until(4)
            .aggregates(max)
            .levels_with_plans(&p);
        par::set_threads(Some(4));
        let threaded = StrengthCoarsening::until(4)
            .aggregates(max)
            .levels_with_plans(&p);
        let (parts1, plans1) = serial.expect("serial levels");
        let (parts4, plans4) = threaded.expect("threaded levels");
        prop_assert_eq!(parts1.len(), parts4.len());
        for (a, b) in parts1.iter().zip(&parts4) {
            prop_assert_eq!(a.labels(), b.labels());
        }
        prop_assert_eq!(plans1.len(), plans4.len());
        for (a, b) in plans1.iter().zip(&plans4) {
            prop_assert_eq!(a.fine_n(), b.fine_n());
            prop_assert_eq!(a.fine_nnz(), b.fine_nnz());
            prop_assert_eq!(a.block_count(), b.block_count());
        }
    }
}
