//! Property tests for the symbolic/numeric split of weighted lumping.
//!
//! The solver-facing contract is that a [`LumpPlan`] replay is not an
//! approximation of the from-scratch path but the *same arithmetic* in a
//! preallocated shell: for any chain, partition, and positive weight
//! vector, `lump_with_plan` must reproduce `lump_weighted` bit for bit —
//! pattern and values — at every thread count.

use proptest::prelude::*;
use stochcdr_linalg::{par, CooMatrix};
use stochcdr_markov::lumping::{lump_weighted, lump_with_plan, LumpPlan, LumpWorkspace, Partition};
use stochcdr_markov::StochasticMatrix;

const N: usize = 12;

/// Random row-stochastic matrix on `N` states: every row gets a self
/// loop plus a few weighted targets, then normalizes.
fn chain() -> impl Strategy<Value = StochasticMatrix> {
    prop::collection::vec(
        (
            prop::collection::vec((0..N, 0.05f64..1.0), 1..4),
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
        }
        StochasticMatrix::new(coo.to_csr()).expect("rows normalized")
    })
}

/// Random partition of `N` states: raw labels compacted to
/// first-appearance order, as [`Partition::from_labels`] requires.
fn partition() -> impl Strategy<Value = Partition> {
    prop::collection::vec(0..N, N).prop_map(|raw| {
        let mut remap = [usize::MAX; N];
        let mut next = 0usize;
        let labels: Vec<usize> = raw
            .into_iter()
            .map(|l| {
                if remap[l] == usize::MAX {
                    remap[l] = next;
                    next += 1;
                }
                remap[l]
            })
            .collect();
        Partition::from_labels(labels).expect("labels are contiguous by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan-based lumping is bit-identical to the from-scratch path for
    /// arbitrary chains, partitions, and positive weights, at 1 and 4
    /// worker threads.
    #[test]
    fn plan_replay_matches_from_scratch_bitwise(
        p in chain(),
        part in partition(),
        w in prop::collection::vec(0.01f64..10.0, N),
    ) {
        let reference = lump_weighted(&p, &part, &w).expect("from-scratch lumping");
        let plan = LumpPlan::build(&p, &part).expect("plan");
        for threads in [1usize, 4] {
            par::set_threads(Some(threads));
            let mut ws = LumpWorkspace::for_plan(&plan);
            let replay = lump_with_plan(&p, &part, &w, &plan, &mut ws).expect("plan replay");
            prop_assert_eq!(
                reference.matrix().indptr(),
                replay.matrix().indptr(),
                "pattern (indptr) drifted at {} threads",
                threads
            );
            prop_assert_eq!(
                reference.matrix().indices(),
                replay.matrix().indices(),
                "pattern (indices) drifted at {} threads",
                threads
            );
            let ref_bits: Vec<u64> = reference.matrix().data().iter().map(|v| v.to_bits()).collect();
            let out_bits: Vec<u64> = replay.matrix().data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(ref_bits, out_bits, "values drifted at {} threads", threads);
        }
    }
}
