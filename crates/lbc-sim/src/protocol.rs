//! The protocol interface executed by the simulator.

use std::fmt::Debug;

use lbc_graph::Graph;
use lbc_model::{NodeId, NodeSet, Regime, Round, SharedFloodLedger, SharedPathArena, Value};
use lbc_telemetry::{MessageView, ObserverHandle};

/// Static, per-node context handed to every protocol hook.
///
/// Every node knows the communication graph `G` (a standing assumption of
/// the paper), its own identity, and the declared fault tolerance. The
/// context also carries the execution's shared [`SharedPathArena`], against
/// which message `PathId`s are interned and resolved, and the shared
/// [`SharedFloodLedger`] — the broadcast-once flood fabric the ledger-backed
/// flood engines collapse their per-node state into. The simulator owns one
/// arena and one ledger per run. The [`Regime`] the execution runs under is
/// exposed too: regime-aware protocols read the eventual-fairness bound from
/// it (e.g. to place an asynchronous decision horizon), while round-based
/// protocols can ignore it.
#[derive(Debug, Clone, Copy)]
pub struct NodeContext<'a> {
    /// This node's identifier.
    pub id: NodeId,
    /// The communication graph (known to all nodes).
    pub graph: &'a Graph,
    /// The declared maximum number of Byzantine faults `f`.
    pub f: usize,
    /// The execution regime deliveries are scheduled under.
    pub regime: &'a Regime,
    /// The scheduler step this callback runs at: `None` for the
    /// start-of-execution call, `Some(r)` for round/step `r`. Together with
    /// `regime` this makes adversaries *scheduler-aware*: a strategy can
    /// read where it stands relative to the regime's stabilization time and
    /// straddle the GST boundary deliberately.
    pub step: Option<Round>,
    /// The execution-wide path-interning arena.
    pub arena: &'a SharedPathArena,
    /// The execution-wide shared flood ledger.
    pub ledger: &'a SharedFloodLedger,
    /// The execution's telemetry sink. Disabled by default everywhere; when
    /// a sink is attached the engines emit the deterministic event stream
    /// and protocols may emit protocol-level events of their own.
    pub observer: &'a ObserverHandle,
}

impl<'a> NodeContext<'a> {
    /// The neighbors of this node in the communication graph.
    #[must_use]
    pub fn neighbors(&self) -> NodeSet {
        self.graph.neighbor_set(self.id)
    }

    /// The number of nodes `n` in the system.
    #[must_use]
    pub fn n(&self) -> usize {
        self.graph.node_count()
    }
}

/// An outgoing transmission produced by a protocol (or an adversary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outgoing<M> {
    /// Transmit `M` to all neighbors. Under every communication model this
    /// reaches every neighbor identically.
    Broadcast(M),
    /// Address `M` to a single neighbor. Under the point-to-point model (or
    /// for an equivocating faulty node under the hybrid model) only the
    /// target receives it; under local broadcast the transmission is
    /// physically overheard by **all** neighbors regardless of the address.
    Unicast(NodeId, M),
}

impl<M> Outgoing<M> {
    /// The payload carried by this transmission.
    pub fn message(&self) -> &M {
        match self {
            Outgoing::Broadcast(m) | Outgoing::Unicast(_, m) => m,
        }
    }
}

/// A message delivered to a node at the start of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// The neighbor that transmitted the message. Links authenticate the
    /// sender: "when a message m sent by node u is received by node v, node v
    /// knows that m was sent by node u".
    pub from: NodeId,
    /// The payload.
    pub message: M,
}

/// A zero-clone view over the messages delivered to one node this round.
///
/// The round's transmissions live **once** in the network's round buffer;
/// an inbox addresses one node's deliveries either directly (a plain slice,
/// used by tests and standalone flood drivers) or as indices into the shared
/// buffer (the simulator's delivery path, which therefore never clones a
/// message per neighbor — under local broadcast a single broadcast used to
/// be cloned `deg(sender)` times).
#[derive(Debug)]
pub struct Inbox<'a, M> {
    buffer: &'a [Delivery<M>],
    slots: InboxSlots<'a>,
}

// Manual impls: an inbox is two shared references, copyable regardless of
// whether `M` itself is (the derive would demand `M: Copy`).
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

#[derive(Debug, Clone, Copy)]
enum InboxSlots<'a> {
    /// The node's deliveries are exactly the buffer.
    All,
    /// Indices into the shared round buffer, in delivery order.
    Indexed(&'a [u32]),
}

impl<'a, M> Inbox<'a, M> {
    /// An inbox whose deliveries are exactly `deliveries`, in order.
    #[must_use]
    pub fn direct(deliveries: &'a [Delivery<M>]) -> Self {
        Inbox {
            buffer: deliveries,
            slots: InboxSlots::All,
        }
    }

    /// An inbox of `slots` indices into the shared round `buffer`.
    #[must_use]
    pub fn indexed(buffer: &'a [Delivery<M>], slots: &'a [u32]) -> Self {
        Inbox {
            buffer,
            slots: InboxSlots::Indexed(slots),
        }
    }

    /// Number of deliveries.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.slots {
            InboxSlots::All => self.buffer.len(),
            InboxSlots::Indexed(slots) => slots.len(),
        }
    }

    /// Whether nothing was delivered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the deliveries in delivery order.
    #[must_use]
    pub fn iter(&self) -> InboxIter<'a, M> {
        match self.slots {
            InboxSlots::All => InboxIter::All(self.buffer.iter()),
            InboxSlots::Indexed(slots) => InboxIter::Indexed {
                buffer: self.buffer,
                slots: slots.iter(),
            },
        }
    }

    /// Iterates `(slot, delivery)` pairs, where `slot` identifies the
    /// transmission in the shared buffer. Every receiver of the same
    /// transmission sees the same slot, which is what lets the flood engines
    /// decode a transmission once and hand the decode to its other receivers
    /// through the ledger's slot tables (see `lbc_model::FloodLedger`). The
    /// lockstep loop numbers slots from 0 every round; the event loop numbers
    /// them across a whole chain. For an [`Inbox::direct`] inbox the slot is
    /// the position in the slice, which is unique only within that inbox, so
    /// a slot-keyed cache must verify an entry's key before trusting it.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (u32, &'a Delivery<M>)> + use<'a, M> {
        let buffer = self.buffer;
        match self.slots {
            InboxSlots::All => IndexedIter::All(buffer.iter().enumerate()),
            InboxSlots::Indexed(slots) => IndexedIter::Indexed {
                buffer,
                slots: slots.iter(),
            },
        }
    }
}

enum IndexedIter<'a, M> {
    All(std::iter::Enumerate<std::slice::Iter<'a, Delivery<M>>>),
    Indexed {
        buffer: &'a [Delivery<M>],
        slots: std::slice::Iter<'a, u32>,
    },
}

impl<'a, M> Iterator for IndexedIter<'a, M> {
    type Item = (u32, &'a Delivery<M>);

    fn next(&mut self) -> Option<(u32, &'a Delivery<M>)> {
        match self {
            IndexedIter::All(iter) => iter
                .next()
                .map(|(position, delivery)| (position as u32, delivery)),
            IndexedIter::Indexed { buffer, slots } => {
                slots.next().map(|&slot| (slot, &buffer[slot as usize]))
            }
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = &'a Delivery<M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = &'a Delivery<M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]'s deliveries.
#[derive(Debug)]
pub enum InboxIter<'a, M> {
    /// Direct slice iteration.
    All(std::slice::Iter<'a, Delivery<M>>),
    /// Indexed iteration through the shared round buffer.
    Indexed {
        /// The shared round buffer.
        buffer: &'a [Delivery<M>],
        /// Remaining slot indices.
        slots: std::slice::Iter<'a, u32>,
    },
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = &'a Delivery<M>;

    fn next(&mut self) -> Option<&'a Delivery<M>> {
        match self {
            InboxIter::All(iter) => iter.next(),
            InboxIter::Indexed { buffer, slots } => {
                slots.next().map(|&slot| &buffer[slot as usize])
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            InboxIter::All(iter) => iter.size_hint(),
            InboxIter::Indexed { slots, .. } => slots.size_hint(),
        }
    }
}

/// A node-local protocol executed by the simulator in synchronous rounds.
///
/// The round structure is: `on_start` runs before round 0 and returns the
/// initial transmissions; those are delivered at round 0, when `on_round` is
/// called with the inbox; its return value is delivered at round 1; and so
/// on. The simulator stops when every non-faulty node reports
/// [`Protocol::has_terminated`] (or a round limit is hit).
pub trait Protocol {
    /// The message type exchanged by this protocol. The [`MessageView`]
    /// bound lets the instrumented engines describe any protocol's traffic
    /// (value, relay path, observed origin) without knowing the protocol.
    type Message: Clone + Eq + Debug + MessageView;

    /// Called once before the first round; returns the initial transmissions.
    fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<Self::Message>>;

    /// Called every round with the messages delivered this round; returns the
    /// transmissions for the next round.
    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: Round,
        inbox: Inbox<'_, Self::Message>,
    ) -> Vec<Outgoing<Self::Message>>;

    /// The decided output, once the node has decided.
    fn output(&self) -> Option<Value>;

    /// Whether this node has finished executing. Defaults to "has decided".
    fn has_terminated(&self) -> bool {
        self.output().is_some()
    }

    /// The `(origin, value)` evidence the node's decision rests on, once
    /// decided. Protocols with a meaningful witness override this — the
    /// asynchronous flood protocol returns its κ-witnessed reliable
    /// receptions (each backed by `f + 1` internally-disjoint paths) — and
    /// the telemetry layer attaches it to the `NodeDecided` event so that a
    /// post-mortem can say *what* a node decided on, not just what it
    /// decided. Defaults to no evidence.
    fn decision_evidence(&self) -> Vec<(NodeId, Value)> {
        Vec::new()
    }
}

/// Messages that a Byzantine adversary knows how to corrupt generically.
///
/// Concrete adversary strategies in `lbc-adversary` are written against this
/// trait so that they work for every protocol in the workspace without
/// depending on the protocol crates.
pub trait ByzantineMessage: Clone {
    /// Returns a tampered variant of the message (e.g. with its binary value
    /// flipped). Returning `self.clone()` is allowed when the message has
    /// nothing meaningful to tamper with.
    fn tampered(&self) -> Self;
}

/// A minimal built-in protocol used for simulator self-tests and examples:
/// each node broadcasts its input value once and decides its own input.
///
/// It is **not** a consensus protocol — it exists so that `lbc-sim` can be
/// exercised and documented without depending on `lbc-consensus`.
#[derive(Debug, Clone)]
pub struct EchoOnce {
    input: Value,
    echoed: Vec<(NodeId, Value)>,
    decided: Option<Value>,
}

impl EchoOnce {
    /// Creates an echo node with the given input.
    #[must_use]
    pub fn new(input: Value) -> Self {
        EchoOnce {
            input,
            echoed: Vec::new(),
            decided: None,
        }
    }

    /// The values received from neighbors, in delivery order.
    #[must_use]
    pub fn heard(&self) -> &[(NodeId, Value)] {
        &self.echoed
    }
}

impl Protocol for EchoOnce {
    type Message = Value;

    fn on_start(&mut self, _ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
        vec![Outgoing::Broadcast(self.input)]
    }

    fn on_round(
        &mut self,
        _ctx: &NodeContext<'_>,
        _round: Round,
        inbox: Inbox<'_, Value>,
    ) -> Vec<Outgoing<Value>> {
        for delivery in inbox.iter() {
            self.echoed.push((delivery.from, delivery.message));
        }
        self.decided = Some(self.input);
        Vec::new()
    }

    fn output(&self) -> Option<Value> {
        self.decided
    }
}

impl ByzantineMessage for Value {
    fn tampered(&self) -> Self {
        self.flipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbc_graph::generators;

    #[test]
    fn node_context_exposes_graph_facts() {
        let graph = generators::cycle(5);
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let observer = ObserverHandle::disabled();
        let ctx = NodeContext {
            id: NodeId::new(2),
            graph: &graph,
            f: 1,
            regime: &Regime::Synchronous,
            step: None,
            arena: &arena,
            ledger: &ledger,
            observer: &observer,
        };
        assert_eq!(ctx.n(), 5);
        assert_eq!(ctx.neighbors().len(), 2);
        assert!(ctx.neighbors().contains(NodeId::new(1)));
    }

    #[test]
    fn outgoing_message_accessor() {
        let b: Outgoing<Value> = Outgoing::Broadcast(Value::One);
        let u: Outgoing<Value> = Outgoing::Unicast(NodeId::new(3), Value::Zero);
        assert_eq!(*b.message(), Value::One);
        assert_eq!(*u.message(), Value::Zero);
    }

    #[test]
    fn value_tampering_flips() {
        assert_eq!(Value::One.tampered(), Value::Zero);
        assert_eq!(Value::Zero.tampered(), Value::One);
    }

    #[test]
    fn echo_once_decides_its_own_input() {
        let graph = generators::complete(3);
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let observer = ObserverHandle::disabled();
        let ctx = NodeContext {
            id: NodeId::new(0),
            graph: &graph,
            f: 0,
            regime: &Regime::Synchronous,
            step: None,
            arena: &arena,
            ledger: &ledger,
            observer: &observer,
        };
        let mut node = EchoOnce::new(Value::One);
        assert!(!node.has_terminated());
        let out = node.on_start(&ctx);
        assert_eq!(out.len(), 1);
        let _ = node.on_round(
            &ctx,
            Round::ZERO,
            Inbox::direct(&[Delivery {
                from: NodeId::new(1),
                message: Value::Zero,
            }]),
        );
        assert_eq!(node.output(), Some(Value::One));
        assert_eq!(node.heard(), &[(NodeId::new(1), Value::Zero)]);
        assert!(node.has_terminated());
    }
}
