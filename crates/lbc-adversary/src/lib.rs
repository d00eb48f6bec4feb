//! # lbc-adversary
//!
//! A library of Byzantine adversary strategies for the local-broadcast
//! consensus simulator.
//!
//! Strategies are written against the [`lbc_sim::ByzantineMessage`] trait, so
//! one strategy value works against every protocol in the workspace
//! (Algorithm 1/2/3, the asynchronous algorithm, the point-to-point
//! baseline, and test probes). The communication model is enforced by the
//! *network*, not the adversary: a strategy may attempt to equivocate under
//! any model, and the simulator delivers the attempt according to the model
//! (overheard by everyone under local broadcast, private under
//! point-to-point).
//!
//! Under asynchronous regimes the adversary additionally controls the
//! delivery schedule; the [`schedule`] module is that half of the surface
//! (catalogue, mutations, simplifications over
//! [`lbc_model::AsyncRegime`]). Under partial synchrony the same module
//! adds the timing axis ([`schedule::GstAttack`]): the choice of GST and of
//! the pre-GST hold-set, co-mutated by the search and coupled to the
//! scheduler-aware strategies ([`Strategy::gst_aware`]).
//!
//! # Example
//!
//! ```
//! use lbc_adversary::Strategy;
//! use lbc_graph::generators;
//! use lbc_model::{CommModel, NodeId, NodeSet, Regime, Value};
//! use lbc_sim::{EchoOnce, Network};
//!
//! // One silent (crashed) node on the 5-cycle: its neighbors hear nothing.
//! let graph = generators::paper_fig1a();
//! let nodes: Vec<EchoOnce> = graph.nodes().map(|_| EchoOnce::new(Value::One)).collect();
//! let faulty = NodeSet::singleton(NodeId::new(2));
//! let mut network = Network::new(graph, CommModel::LocalBroadcast, faulty, nodes);
//! let mut adversary = Strategy::Silent.into_adversary();
//! let report = network.run_under(&Regime::Synchronous, &mut adversary, 10);
//! assert!(report.all_non_faulty_terminated);
//! assert_eq!(network.node(NodeId::new(1)).heard().len(), 1); // only node 0 was heard
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod schedule;
mod strategy;

pub use strategy::{Strategy, StrategyAdversary};
