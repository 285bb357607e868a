//! Adaptive (strength-based) coarsening for chains without geometric
//! structure.
//!
//! The paper's coarsening exploits the CDR model's layout (pairing
//! adjacent phase bins). For arbitrary chains the multigrid literature it
//! cites (Buchholz's "adaptive aggregation/disaggregation") builds the
//! aggregates from the *matrix itself*: states that exchange probability
//! strongly should share an aggregate, because their stationary
//! probabilities equilibrate quickly relative to the rest of the chain.
//!
//! [`StrengthCoarsening`] implements greedy pairwise aggregation by
//! symmetric coupling strength — the Markov-chain analogue of pairwise
//! aggregation AMG.

use stochcdr_linalg::CsrMatrix;
use stochcdr_markov::lumping::{lump_with_plan, LumpPlan, LumpWorkspace, Partition};
use stochcdr_markov::StochasticMatrix;

/// Union-find root lookup with path halving — iterative, deterministic.
fn find(root: &mut [u32], mut i: u32) -> u32 {
    while root[i as usize] != i {
        let parent = root[i as usize];
        root[i as usize] = root[parent as usize];
        i = root[i as usize];
    }
    i
}

/// Largest aggregate size [`StrengthCoarsening::aggregates`] accepts.
pub const MAX_AGGREGATE: usize = 8;

/// Greedy strength-based aggregation coarsening.
///
/// At each level every state is matched with its most strongly coupled
/// unmatched neighbor (`strength(i, j) = p_ij + p_ji`); unmatched leftovers
/// become singletons. With [`aggregates`](Self::aggregates) above 2, a
/// second strength-threshold pass grows the pairs into variable-size
/// aggregates: a still-unaggregated state joins its strongest neighboring
/// aggregate whenever that coupling is at least `threshold` times the
/// state's strongest coupling overall and the aggregate has room. Levels
/// are generated until the size drops to `stop_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrengthCoarsening {
    stop_at: usize,
    max_aggregate: usize,
    threshold: f64,
}

impl StrengthCoarsening {
    /// Coarsens until the level size is `<= stop_at`, with strict pairwise
    /// aggregation (the historical default).
    ///
    /// # Panics
    ///
    /// Panics if `stop_at == 0`.
    pub fn until(stop_at: usize) -> Self {
        assert!(stop_at > 0, "stop size must be positive");
        StrengthCoarsening {
            stop_at,
            max_aggregate: 2,
            threshold: 0.25,
        }
    }

    /// Allows aggregates of up to `max` states (default 2, i.e. strict
    /// pairs). Larger aggregates mean fewer, shallower levels — the lever
    /// that keeps million-state hierarchies short.
    ///
    /// # Panics
    ///
    /// Panics unless `max` is in `2..=8`.
    pub fn aggregates(mut self, max: usize) -> Self {
        assert!(
            (2..=MAX_AGGREGATE).contains(&max),
            "aggregate size bound must be in 2..={MAX_AGGREGATE}"
        );
        self.max_aggregate = max;
        self
    }

    /// Relative strength-of-connection threshold for the growth pass
    /// (default 0.25): a state only joins an aggregate through an edge at
    /// least this fraction of its strongest coupling, so weakly attached
    /// states stay out rather than polluting an aggregate.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1]`.
    pub fn threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "strength threshold must be in (0, 1]"
        );
        self.threshold = threshold;
        self
    }

    /// Builds one aggregation partition for the given transition matrix.
    ///
    /// Returns `None` when the chain is already at or below the stop size.
    pub fn coarsen_once(&self, p: &CsrMatrix) -> Option<Partition> {
        let n = p.rows();
        if n <= self.stop_at {
            return None;
        }
        // Symmetric strengths: collect (strength, i, j) for i < j.
        let mut edges: Vec<(f64, u32, u32)> = Vec::with_capacity(p.nnz());
        for (i, j, v) in p.iter() {
            match i.cmp(&j) {
                std::cmp::Ordering::Less => edges.push((v + p.get(j, i), i as u32, j as u32)),
                std::cmp::Ordering::Greater => {
                    // Only count (j, i) if (j -> i) has no reverse edge;
                    // otherwise the Less arm already recorded the pair.
                    if p.get(j, i) == 0.0 {
                        edges.push((v, j as u32, i as u32));
                    }
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        edges.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));

        // Pass 1 — greedy pairwise matching in strength order, tracked as
        // a union-find forest rooted at the pair's smaller index.
        let mut root: Vec<u32> = (0..n as u32).collect();
        let mut size = vec![1u32; n];
        let mut matched = vec![false; n];
        for &(_, i, j) in &edges {
            if !matched[i as usize] && !matched[j as usize] {
                matched[i as usize] = true;
                matched[j as usize] = true;
                root[j as usize] = i;
                size[i as usize] = 2;
            }
        }

        // Pass 2 — strength-threshold growth: walk the same deterministic
        // strength order again and union aggregates across an edge when
        // the combined size fits the bound and the edge carries at least
        // `threshold` of the weaker endpoint's strongest coupling. This
        // grows pairs into variable-size aggregates (pair + singleton,
        // pair + pair, …) instead of leaving every level a strict halving.
        if self.max_aggregate > 2 {
            let mut smax = vec![0.0f64; n];
            for &(s, i, j) in &edges {
                if s > smax[i as usize] {
                    smax[i as usize] = s;
                }
                if s > smax[j as usize] {
                    smax[j as usize] = s;
                }
            }
            let cap = self.max_aggregate as u32;
            for &(s, i, j) in &edges {
                let ri = find(&mut root, i);
                let rj = find(&mut root, j);
                if ri == rj {
                    continue;
                }
                let combined = size[ri as usize] + size[rj as usize];
                if combined <= cap && s >= self.threshold * smax[i as usize].min(smax[j as usize]) {
                    // Root at the smaller index so labels stay a pure
                    // function of the (deterministically ordered) edges.
                    let (keep, gone) = if ri < rj { (ri, rj) } else { (rj, ri) };
                    root[gone as usize] = keep;
                    size[keep as usize] = combined;
                }
            }
        }

        // Assign block labels in state order: aggregates share one label,
        // singletons get their own.
        let mut labels = vec![usize::MAX; n];
        let mut root_label = vec![usize::MAX; n];
        let mut next = 0usize;
        for (i, label) in labels.iter_mut().enumerate() {
            let r = find(&mut root, i as u32) as usize;
            if root_label[r] == usize::MAX {
                root_label[r] = next;
                next += 1;
            }
            *label = root_label[r];
        }
        Some(Partition::from_labels(labels).expect("labels are contiguous by construction"))
    }

    /// Builds the full partition hierarchy for a chain, re-aggregating the
    /// (uniform-weight) coarse operator at each level.
    ///
    /// # Errors
    ///
    /// Propagates lumping failures (cannot occur for a valid chain, but
    /// surfaced rather than panicking).
    pub fn levels(&self, p: &StochasticMatrix) -> stochcdr_markov::Result<Vec<Partition>> {
        self.levels_with_plans(p).map(|(parts, _)| parts)
    }

    /// Like [`levels`](Self::levels), but also returns the symbolic
    /// lumping plan for each transfer. The strength analysis has to build
    /// every coarse operator anyway, so the plans come out as a by-product
    /// — callers hand them to
    /// [`MultigridBuilder::plans`](crate::MultigridBuilder::plans) and the
    /// solver skips its own symbolic pass.
    ///
    /// # Errors
    ///
    /// Same as [`levels`](Self::levels).
    pub fn levels_with_plans(
        &self,
        p: &StochasticMatrix,
    ) -> stochcdr_markov::Result<(Vec<Partition>, Vec<LumpPlan>)> {
        let mut parts = Vec::new();
        let mut plans = Vec::new();
        let mut current = p.clone();
        while let Some(part) = self.coarsen_once(current.matrix()) {
            // Aggregate with uniform weights to expose the next level's
            // coupling structure; the solver refreshes operators with real
            // weights at run time through the same plans.
            let plan = LumpPlan::build(&current, &part)?;
            let mut ws = LumpWorkspace::for_plan(&plan);
            let w = vec![1.0; current.n()];
            current = lump_with_plan(&current, &part, &w, &plan, &mut ws)?;
            parts.push(part);
            plans.push(plan);
        }
        Ok((parts, plans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleKind, MultigridSolver};
    use stochcdr_linalg::{vecops, CooMatrix};
    use stochcdr_markov::stationary::{GthSolver, StationarySolver};

    /// Two tightly coupled pairs with weak cross coupling.
    fn paired_chain() -> StochasticMatrix {
        let eps = 1e-3;
        let mut coo = CooMatrix::new(4, 4);
        // Pair {0,1}: strong exchange.
        coo.push(0, 1, 0.9 - eps);
        coo.push(0, 0, 0.1);
        coo.push(0, 2, eps);
        coo.push(1, 0, 0.8);
        coo.push(1, 1, 0.2);
        // Pair {2,3}.
        coo.push(2, 3, 0.9 - eps);
        coo.push(2, 2, 0.1);
        coo.push(2, 0, eps);
        coo.push(3, 2, 0.8);
        coo.push(3, 3, 0.2);
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn pairs_strongly_coupled_states() {
        let p = paired_chain();
        let part = StrengthCoarsening::until(2)
            .coarsen_once(p.matrix())
            .unwrap();
        assert_eq!(part.block_count(), 2);
        assert_eq!(part.block_of(0), part.block_of(1));
        assert_eq!(part.block_of(2), part.block_of(3));
        assert_ne!(part.block_of(0), part.block_of(2));
    }

    #[test]
    fn respects_stop_size() {
        let p = paired_chain();
        assert!(StrengthCoarsening::until(4)
            .coarsen_once(p.matrix())
            .is_none());
        assert!(StrengthCoarsening::until(8).levels(&p).unwrap().is_empty());
    }

    #[test]
    fn hierarchy_chains_consistently() {
        // Ring of 32 states.
        let n = 32;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.55);
            coo.push(i, (i + n - 1) % n, 0.35);
            coo.push(i, i, 0.1);
        }
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let parts = StrengthCoarsening::until(4).levels(&p).unwrap();
        assert!(!parts.is_empty());
        assert_eq!(parts[0].n(), n);
        for w in parts.windows(2) {
            assert_eq!(w[0].block_count(), w[1].n());
        }
        assert!(parts.last().unwrap().block_count() <= 4);
    }

    #[test]
    fn plans_chain_and_injecting_them_is_bit_identical() {
        let n = 32;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.55);
            coo.push(i, (i + n - 1) % n, 0.35);
            coo.push(i, i, 0.1);
        }
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let (parts, plans) = StrengthCoarsening::until(4).levels_with_plans(&p).unwrap();
        assert_eq!(parts.len(), plans.len());
        assert_eq!(plans[0].fine_n(), n);
        for (part, plan) in parts.iter().zip(&plans) {
            assert_eq!(part.block_count(), plan.block_count());
        }
        let base = MultigridSolver::builder(parts.clone())
            .tol(1e-10)
            .build()
            .solve(&p, None)
            .unwrap();
        let injected = MultigridSolver::builder(parts)
            .plans(std::sync::Arc::new(plans))
            .tol(1e-10)
            .build()
            .solve(&p, None)
            .unwrap();
        assert_eq!(base.distribution, injected.distribution);
        assert_eq!(base.iterations(), injected.iterations());
    }

    #[test]
    fn variable_aggregates_shorten_the_hierarchy() {
        // Ring of 64 states: pairwise halves each level, size-8 aggregates
        // should cut roughly three levels per one.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.55);
            coo.push(i, (i + n - 1) % n, 0.35);
            coo.push(i, i, 0.1);
        }
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let pairs = StrengthCoarsening::until(4).levels(&p).unwrap();
        let wide = StrengthCoarsening::until(4)
            .aggregates(8)
            .levels(&p)
            .unwrap();
        assert!(
            wide.len() < pairs.len(),
            "size-8 aggregates built {} levels, pairs {}",
            wide.len(),
            pairs.len()
        );
        // Aggregates actually grow beyond pairs somewhere.
        let max_block = wide
            .iter()
            .flat_map(|part| {
                let mut sizes = vec![0usize; part.block_count()];
                for i in 0..part.n() {
                    sizes[part.block_of(i)] += 1;
                }
                sizes
            })
            .max()
            .unwrap();
        assert!(max_block > 2, "growth pass never exceeded pairs");
        assert!(max_block <= 8);
    }

    #[test]
    fn variable_aggregate_hierarchy_still_solves() {
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.55);
            coo.push(i, (i + n - 1) % n, 0.35);
            coo.push(i, i, 0.1);
        }
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let parts = StrengthCoarsening::until(4)
            .aggregates(4)
            .levels(&p)
            .unwrap();
        let solver = MultigridSolver::builder(parts)
            .tol(1e-11)
            .max_cycles(500)
            .build();
        let mg = solver.solve(&p, None).unwrap();
        let reference = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&mg.distribution, &reference.distribution) < 1e-8);
    }

    #[test]
    fn multigrid_with_adaptive_hierarchy_solves() {
        // Unstructured chain: pseudo-random sparse stochastic matrix.
        let n = 64;
        let mut state = 0xDEADBEEFu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 997) as f64 / 997.0
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let mut weights = [(0usize, 0.0f64); 4];
            for w in weights.iter_mut() {
                *w = ((rnd() * n as f64) as usize % n, rnd() + 0.05);
            }
            let total: f64 = weights.iter().map(|&(_, v)| v).sum();
            for &(j, v) in &weights {
                coo.push(i, j, v / total);
            }
            // Ensure connectivity via a weak ring.
            coo.push(i, (i + 1) % n, 1e-3);
        }
        // Renormalize rows.
        let m = coo.to_csr();
        let sums = m.row_sums();
        let factors: Vec<f64> = sums.iter().map(|s| 1.0 / s).collect();
        let p = StochasticMatrix::new(m.scale_rows(&factors)).unwrap();

        let parts = StrengthCoarsening::until(8).levels(&p).unwrap();
        let solver = MultigridSolver::builder(parts)
            .cycle(CycleKind::W)
            .tol(1e-11)
            .max_cycles(500)
            .build();
        let mg = solver.solve(&p, None).unwrap();
        let reference = GthSolver::new().solve(&p, None).unwrap();
        assert!(
            vecops::dist1(&mg.distribution, &reference.distribution) < 1e-8,
            "adaptive multigrid deviates"
        );
    }
}
