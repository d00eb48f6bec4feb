//! # lbc-model
//!
//! Shared vocabulary types for the *local broadcast* Byzantine consensus
//! reproduction of Khan, Naqvi and Vaidya (PODC 2019).
//!
//! Every other crate in the workspace builds on the small, dependency-free
//! types defined here:
//!
//! * [`NodeId`] — a node/vertex identifier,
//! * [`Value`] — a binary consensus value,
//! * [`Round`] — a synchronous round counter,
//! * [`Path`] — a sequence of node identifiers as carried inside flooded
//!   messages (the `Π` of Algorithm 1),
//! * [`PathArena`] / [`PathId`] — the path-interning subsystem: paths are
//!   interned into a prefix-trie arena and referenced by copyable `u32` ids,
//!   which is what lets the flood engine avoid per-message `Vec` clones,
//! * [`SharedPathArena`] — the per-execution arena handle threaded through
//!   the simulator,
//! * [`FloodLedger`] / [`SharedFloodLedger`] — the shared flood fabric:
//!   execution-wide broadcast-once records that let every node's flood state
//!   collapse to bitsets over shared indices ([`DenseBits`]),
//! * [`NodeSet`] — an ordered set of nodes (fault sets, cuts, neighborhoods),
//!   backed by a `u64`-word bitset,
//! * [`CommModel`] — the communication model: local broadcast, point-to-point,
//!   or the hybrid model of Section 6 of the paper,
//! * [`Regime`] — the execution regime: lockstep synchronous rounds, or
//!   eventually-fair asynchronous delivery under a deterministic seeded
//!   scheduler ([`AsyncRegime`] / [`SchedulerKind`]),
//! * [`InputAssignment`] — the binary inputs of all nodes,
//! * [`ConsensusOutcome`] — decided outputs plus the correctness verdict
//!   (agreement / validity / termination),
//! * [`fx`] — the FxHash hasher used by the flood engine's hot maps,
//! * [`json`] — a minimal JSON writer/parser used for traces and baselines.
//!
//! # Example
//!
//! ```
//! use lbc_model::{NodeId, Value, Path, CommModel};
//!
//! let a = NodeId::new(0);
//! let b = NodeId::new(1);
//! let path = Path::empty().extended(a).extended(b);
//! assert_eq!(path.len(), 2);
//! assert!(path.contains(a));
//!
//! let model = CommModel::LocalBroadcast;
//! assert!(!model.allows_equivocation(a));
//! assert_eq!(Value::Zero.flipped(), Value::One);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod comm;
mod error;
pub mod fx;
mod ids;
mod input;
pub mod json;
mod ledger;
mod nodeset;
mod outcome;
mod path;
pub mod regime;
mod value;

pub use arena::{PathArena, PathId, SharedPathArena};
pub use comm::CommModel;
pub use error::ModelError;
pub use ids::{NodeId, Round};
pub use input::InputAssignment;
pub use ledger::{
    report_key, ChannelEvent, ChannelId, DenseBits, FloodLedger, RelayDecode, ReportKey,
    ReportLookup, ReportRecord, SharedFloodLedger,
};
pub use nodeset::NodeSet;
pub use outcome::{ConsensusOutcome, Verdict};
pub use path::Path;
pub use regime::{AdversarialSchedule, AsyncRegime, Regime, SchedulerKind, MAX_DELAY, MAX_GST};
pub use value::Value;
