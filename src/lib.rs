//! # local-broadcast-consensus
//!
//! A production-quality Rust reproduction of **"Exact Byzantine Consensus on
//! Undirected Graphs under Local Broadcast Model"** (Khan, Naqvi, Vaidya —
//! PODC 2019 / arXiv:1903.11677).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`model`] — shared vocabulary types (node ids, binary values, paths,
//!   node sets, communication models, outcomes),
//! * [`graph`] — the undirected-graph substrate (generators, connectivity,
//!   Menger-style disjoint paths, cuts),
//! * [`sim`] — the deterministic network simulator (lockstep or
//!   event-scheduled steps),
//! * [`adversary`] — Byzantine strategy library,
//! * [`consensus`] — the paper's algorithms (1, 2, 3), the feasibility
//!   conditions, and the point-to-point baseline,
//! * [`lowerbound`] — the Figure 2/3 impossibility constructions,
//! * [`experiments`] — the harness regenerating every figure / claim,
//! * [`campaign`] — declarative scenario specs plus the deterministic
//!   parallel sweep executor (`lbc campaign <spec.json>`).
//!
//! ## Quickstart
//!
//! ```
//! use local_broadcast_consensus::prelude::*;
//!
//! // Figure 1(a): the 5-cycle tolerates one Byzantine fault under local
//! // broadcast (it could tolerate none under the classical model).
//! let graph = generators::paper_fig1a();
//! assert!(conditions::local_broadcast_feasible(&graph, 1));
//! assert!(!conditions::point_to_point_feasible(&graph, 1));
//!
//! let inputs = InputAssignment::from_bits(5, 0b01101);
//! let faulty = NodeSet::singleton(NodeId::new(3));
//! let mut adversary = Strategy::TamperRelays.into_adversary();
//! let (outcome, trace) = runner::run_kind_under(
//!     AlgorithmKind::Algorithm1,
//!     &Regime::Synchronous,
//!     &graph,
//!     1,
//!     &inputs,
//!     &faulty,
//!     &mut adversary,
//! );
//! assert!(outcome.verdict().is_correct());
//! assert_eq!(trace.rounds(), 30); // 6 candidate fault sets × 5 flooding rounds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lbc_adversary as adversary;
pub use lbc_campaign as campaign;
pub use lbc_consensus as consensus;
pub use lbc_experiments as experiments;
pub use lbc_graph as graph;
pub use lbc_lowerbound as lowerbound;
pub use lbc_model as model;
pub use lbc_sim as sim;

/// Commonly used items, re-exported flat for examples and quick scripts.
pub mod prelude {
    pub use lbc_adversary::Strategy;
    pub use lbc_consensus::{
        conditions, runner, Algorithm1Node, Algorithm2Node, Algorithm3Node, AlgorithmKind,
    };
    pub use lbc_graph::{connectivity, generators, paths, Graph};
    pub use lbc_lowerbound::{connectivity_construction, degree_construction};
    pub use lbc_model::{
        CommModel, ConsensusOutcome, InputAssignment, NodeId, NodeSet, Path, Regime, Value,
    };
    pub use lbc_sim::{HonestAdversary, Network};
}
