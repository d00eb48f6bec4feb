//! # lbc-sim
//!
//! Deterministic network simulator for the local-broadcast Byzantine
//! consensus workspace.
//!
//! The simulator executes a [`Protocol`] instance per node of an undirected
//! communication graph, in one of two step loops: lockstep rounds for the
//! synchronous regime, or event-scheduled steps for the asynchronous and
//! partial-synchrony regimes ([`lbc_model::Regime`]). Either loop runs a
//! chain of consecutive consensus instances over one network
//! ([`Network::run_chain`]); a one-shot run ([`Network::run_under`]) is a
//! chain of one. The communication model
//! ([`lbc_model::CommModel`]) governs what the *physical layer* does with a
//! transmission:
//!
//! * **local broadcast** — every transmission is delivered identically to all
//!   neighbors of the sender, no matter whom it was "addressed" to;
//! * **point-to-point** — unicasts reach only their target, broadcasts reach
//!   every neighbor, and a (faulty) sender may therefore equivocate;
//! * **hybrid** — only the listed equivocators get point-to-point behaviour,
//!   everyone else is overheard as under local broadcast.
//!
//! Faulty nodes are driven by an [`Adversary`], which intercepts the outgoing
//! messages the faulty node's protocol instance would have sent and may
//! replace them arbitrarily. The *model constraints are enforced by the
//! network*, not trusted to the adversary: a non-equivocating faulty node's
//! unicasts are still overheard by all of its neighbors.
//!
//! # Example
//!
//! ```
//! use lbc_graph::generators;
//! use lbc_model::{CommModel, NodeSet, Regime, Value};
//! use lbc_sim::{honest_adversary, EchoOnce, Network};
//!
//! // Three nodes on a triangle, everyone floods its input once and decides it.
//! let graph = generators::complete(3);
//! let protocols: Vec<EchoOnce> = graph
//!     .nodes()
//!     .map(|v| EchoOnce::new(Value::from(v.index() % 2 == 0)))
//!     .collect();
//! let mut network = Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), protocols);
//! let report = network.run_under(&Regime::Synchronous, &mut honest_adversary(), 10);
//! assert!(report.all_non_faulty_terminated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversary;
pub mod cancel;
mod chain;
mod network;
mod protocol;
mod trace;

pub use adversary::{honest_adversary, Adversary, HonestAdversary};
pub use cancel::CancelToken;
pub use chain::{ChainStats, InstanceReport};
pub use network::{Network, RunReport};
pub use protocol::{
    ByzantineMessage, Delivery, EchoOnce, Inbox, InboxIter, NodeContext, Outgoing, Protocol,
};
pub use trace::{Trace, TraceSummary};

// Telemetry vocabulary, re-exported so downstream crates (protocols,
// adversaries, the lower-bound engine) can implement `MessageView` or attach
// observers without depending on `lbc-telemetry` directly.
pub use lbc_telemetry::{Event, MessageView, Moment, MsgMeta, Observer, ObserverHandle, Recorder};
