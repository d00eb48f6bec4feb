//! # lbc-lowerbound
//!
//! Executable versions of the paper's impossibility arguments (Appendix A):
//! the *doubled network* indistinguishability constructions of Figures 2
//! and 3.
//!
//! Given a graph that **violates** one of the conditions of Theorem 4.1 —
//! minimum degree `< 2f` or vertex connectivity `< ⌊3f/2⌋ + 1` — the
//! construction builds a larger network `𝔾` containing two copies of part of
//! the node set, wired with one-way edges so that every copy of a node
//! receives messages from exactly one copy of each original neighbor. Running
//! *any* consensus protocol on `𝔾` (each copy runs the original node's
//! program, believing it is in `G`) then yields three executions `E1`, `E2`,
//! `E3` of that protocol on `G`; if the protocol were correct on `G`
//! tolerating `f` faults, validity in `E1`/`E3` would force outputs that make
//! `E2` violate agreement. The [`ImpossibilityReport`] returned by
//! [`Construction::demonstrate`] exhibits the violation concretely.
//!
//! # Example
//!
//! ```
//! use lbc_consensus::Algorithm1Node;
//! use lbc_graph::generators;
//! use lbc_lowerbound::degree_construction;
//!
//! // A 4-cycle has minimum degree 2 < 2f for f = 2 (its connectivity, 2,
//! // also falls short, but the degree construction only needs the degree
//! // deficiency).
//! let graph = generators::cycle(4);
//! let construction = degree_construction(&graph, 2).expect("degree is deficient");
//! let report = construction.demonstrate(|_id, input| Algorithm1Node::new(input), 400);
//! assert!(report.exhibits_violation());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod construction;
mod split;

pub use construction::{
    connectivity_construction, degree_construction, Construction, ImpossibilityReport,
    ProjectedExecution,
};
pub use split::{CopyIndex, DoubledNetwork, SplitNodeId};
