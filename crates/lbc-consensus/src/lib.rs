//! # lbc-consensus
//!
//! Exact Byzantine consensus under the local broadcast model — the primary
//! contribution of Khan, Naqvi and Vaidya (PODC 2019) — together with the
//! hybrid-model extension and a classical point-to-point baseline.
//!
//! ## What is here
//!
//! * [`conditions`] — executable versions of the paper's feasibility
//!   characterizations: Theorem 4.1/5.1 (local broadcast), Theorem 5.6
//!   (`2f`-connectivity for the efficient algorithm), Theorem 6.1 (hybrid
//!   model), and the classical Dolev condition for point-to-point.
//! * [`flooding`] — the path-annotated flooding sub-protocol with the
//!   equivocation-suppressing forwarding rules (i)–(iv) of Algorithm 1,
//!   implemented twice: the production [`flooding::LedgerFlooder`] on the
//!   shared flood fabric, and the pre-interning [`flooding::NaiveFlooder`]
//!   reference it is checked against.
//! * [`Algorithm1Node`] — the exponential-phase consensus algorithm of
//!   Theorem 5.1 (one phase per candidate fault set `F`, `|F| ≤ f`).
//! * [`Algorithm2Node`] — the efficient `O(n)`-round algorithm of Theorem 5.6
//!   for `2f`-connected graphs (reliable receive, reporting, fault
//!   identification, type A/B decision).
//! * [`Algorithm3Node`] — the hybrid-model algorithm of Theorem 6.1 (phases
//!   over pairs `(F, T)` of non-equivocating and equivocating candidates).
//! * [`AsyncFloodNode`] — the asynchronous-regime algorithm (cf.
//!   arXiv:1909.02865): event-driven flood-and-decide for
//!   `(2f + 1)`-connected graphs, with its decision horizon placed against
//!   the regime's eventual-fairness bound.
//! * [`p2p`] — the point-to-point baseline: reliable pairwise channels via
//!   Dolev-style relay over `2f+1` disjoint paths plus Phase-King agreement
//!   (requires `n ≥ 3f+1` and `2f+1`-connectivity).
//! * [`runner`] — glue that executes any of the above inside the `lbc-sim`
//!   network with an adversary and produces a judged
//!   [`lbc_model::ConsensusOutcome`].
//!
//! ## Quickstart
//!
//! ```
//! use lbc_consensus::{conditions, runner, AlgorithmKind};
//! use lbc_graph::generators;
//! use lbc_model::{InputAssignment, NodeSet, Value};
//! use lbc_sim::HonestAdversary;
//!
//! // Figure 1(a): the 5-cycle tolerates f = 1 under local broadcast.
//! let graph = generators::paper_fig1a();
//! assert!(conditions::local_broadcast_feasible(&graph, 1));
//!
//! let inputs = InputAssignment::from_bits(5, 0b01101);
//! let faulty = NodeSet::new();
//! let (outcome, _trace) = runner::run_kind(
//!     AlgorithmKind::Algorithm1,
//!     &graph,
//!     1,
//!     &inputs,
//!     &faulty,
//!     &mut HonestAdversary,
//! );
//! assert!(outcome.verdict().is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm1;
mod algorithm2;
mod algorithm3;
mod asyncflood;
pub mod conditions;
pub mod flooding;
mod messages;
pub mod p2p;
mod phased;
pub mod runner;

pub use algorithm1::Algorithm1Node;
pub use algorithm2::Algorithm2Node;
pub use algorithm3::Algorithm3Node;
pub use asyncflood::AsyncFloodNode;
pub use messages::{Alg2Message, DecisionMsg, FloodMsg, ReportMsg};
pub use phased::StepCCase;
pub use runner::{AlgorithmKind, InstanceResult};
