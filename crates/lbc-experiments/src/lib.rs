//! # lbc-experiments
//!
//! The experiment harness that regenerates every figure and theorem-level
//! claim of the paper as a reproducible table. The table below maps each
//! experiment to its paper artifact; `lbc experiments [ID]` prints them.
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | Figure 1(a): 5-cycle, `f = 1` | [`e1_fig1a_cycle`] |
//! | E2 | Figure 1(b) class: `f = 2` graphs | [`e2_fig1b_f2`] |
//! | E3 | Lemma A.1 / Figure 2: degree lower bound | [`e3_degree_lower_bound`] |
//! | E4 | Lemma A.2 / Figure 3: connectivity lower bound | [`e4_connectivity_lower_bound`] |
//! | E5 | Theorems 4.1 + 5.1 vs Dolev: threshold comparison | [`e5_threshold_sweep`] |
//! | E6 | Theorem 5.6: round/message complexity | [`e6_round_complexity`] |
//! | E7 | Theorem 6.1: hybrid trade-off | [`e7_hybrid_tradeoff`] |
//! | E8 | Section 5.3: reliable receive & fault identification | [`e8_reliable_receive`] |
//!
//! E1 and E6 additionally exist as declarative campaign specs, the
//! committed `examples/campaigns/e1_fig1a.json` and `e6_complexity.json`,
//! which `lbc campaign` runs through the `lbc-campaign` sweep engine — same
//! coverage, but expressed as data and executed by the deterministic
//! parallel executor. This crate's integration tests run both specs.
//!
//! Each function returns an [`ExperimentResult`] that renders to a plain-text
//! table (and to JSON through `lbc_model::json`), so `cargo bench` and the
//! examples can print the same rows the paper's claims correspond to.
//!
//! # Example
//!
//! ```
//! let result = lbc_experiments::e5_threshold_sweep();
//! assert_eq!(result.id, "E5");
//! println!("{}", result.render_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod experiments;
mod result;

pub use experiments::{
    all_experiments, e1_fig1a_cycle, e2_fig1b_f2, e3_degree_lower_bound,
    e4_connectivity_lower_bound, e5_threshold_sweep, e6_round_complexity, e7_hybrid_tradeoff,
    e8_reliable_receive,
};
pub use result::ExperimentResult;
