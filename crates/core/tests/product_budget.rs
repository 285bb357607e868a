//! `ProductChain::solve_auto` picks its backend from the soft memory
//! budget. The budget is process-global, so this test runs alone in its
//! own binary: while it holds a 1-byte budget, any materialized solve in
//! a concurrent test of the same process would be refused.

use stochcdr::{CdrConfig, CdrModel, DataModel, ProductChain};
use stochcdr_obs as obs;

#[test]
fn solve_auto_selects_by_budget() {
    let cfg = CdrConfig::builder()
        .phases(4)
        .grid_refinement(2)
        .counter_len(2)
        .data_model(DataModel::two_state(0.7, 0.8).unwrap())
        .white_sigma_ui(0.08)
        .drift(2e-2, 8e-2)
        .build()
        .unwrap();
    let lane = CdrModel::new(cfg).build_chain().unwrap();
    let p = ProductChain::replicated(&lane, 2).unwrap();
    obs::mem::set_budget(Some(1)); // anything materialized exceeds this
    let implicit = p.solve_auto(1e-8);
    obs::mem::set_budget(None);
    assert!(implicit.unwrap().implicit, "tight budget must go implicit");
    let materialized = p.solve_auto(1e-8).unwrap();
    assert!(!materialized.implicit, "no budget must materialize");
}
