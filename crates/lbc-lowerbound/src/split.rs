//! The doubled network `𝔾` and its execution engine.

use std::collections::BTreeMap;

use lbc_graph::Graph;
use lbc_model::{NodeId, Regime, Round, SharedFloodLedger, SharedPathArena, Value};
use lbc_sim::{Delivery, Inbox, NodeContext, Outgoing, Protocol};

/// Which copy of an original node a `𝔾`-node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CopyIndex {
    /// The only copy (for nodes that are not duplicated), or the "0" copy.
    Zero,
    /// The "1" copy of a duplicated node.
    One,
}

/// A node of the doubled network: an original node identity plus a copy index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SplitNodeId {
    /// The original node this copy simulates.
    pub original: NodeId,
    /// Which copy this is.
    pub copy: CopyIndex,
}

impl SplitNodeId {
    /// Convenience constructor for the zero/only copy.
    #[must_use]
    pub fn zero(original: NodeId) -> Self {
        SplitNodeId {
            original,
            copy: CopyIndex::Zero,
        }
    }

    /// Convenience constructor for the one copy.
    #[must_use]
    pub fn one(original: NodeId) -> Self {
        SplitNodeId {
            original,
            copy: CopyIndex::One,
        }
    }
}

/// The doubled network `𝔾` used by the impossibility constructions.
///
/// Each `𝔾`-node runs the protocol of its original node (believing it lives
/// in the original graph `G`); transmissions are delivered along the
/// (possibly one-way) edges of `𝔾`, and the sender is identified to the
/// receiver by its *original* identity. The construction guarantees that each
/// copy receives messages from exactly one copy of each original neighbor, so
/// this identification is unambiguous.
#[derive(Debug, Clone)]
pub struct DoubledNetwork {
    graph: Graph,
    f: usize,
    nodes: Vec<SplitNodeId>,
    index: BTreeMap<SplitNodeId, usize>,
    /// `receivers[i]` lists the `𝔾`-node indices that hear node `i`'s
    /// transmissions.
    receivers: Vec<Vec<usize>>,
    /// Binary input of each `𝔾`-node.
    inputs: Vec<Value>,
}

impl DoubledNetwork {
    /// Creates an empty doubled network over the original `graph` with the
    /// declared fault tolerance `f`.
    #[must_use]
    pub fn new(graph: Graph, f: usize) -> Self {
        DoubledNetwork {
            graph,
            f,
            nodes: Vec::new(),
            index: BTreeMap::new(),
            receivers: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// The original communication graph `G`.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The declared fault tolerance `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }

    /// The nodes of `𝔾`, in insertion order.
    #[must_use]
    pub fn nodes(&self) -> &[SplitNodeId] {
        &self.nodes
    }

    /// Adds a `𝔾`-node with the given input. Returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the node was already added.
    pub fn add_node(&mut self, node: SplitNodeId, input: Value) -> usize {
        assert!(
            !self.index.contains_key(&node),
            "𝔾-node {node:?} added twice"
        );
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.index.insert(node, idx);
        self.receivers.push(Vec::new());
        self.inputs.push(input);
        idx
    }

    /// Whether the `𝔾`-node exists.
    #[must_use]
    pub fn contains(&self, node: SplitNodeId) -> bool {
        self.index.contains_key(&node)
    }

    /// Adds a directed communication edge: every transmission by `from` is
    /// received by `to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is missing.
    pub fn add_directed(&mut self, from: SplitNodeId, to: SplitNodeId) {
        let from_idx = self.index[&from];
        let to_idx = self.index[&to];
        if !self.receivers[from_idx].contains(&to_idx) {
            self.receivers[from_idx].push(to_idx);
        }
    }

    /// Adds an undirected communication edge (both directions).
    pub fn add_undirected(&mut self, a: SplitNodeId, b: SplitNodeId) {
        self.add_directed(a, b);
        self.add_directed(b, a);
    }

    /// The input value of a `𝔾`-node.
    ///
    /// # Panics
    ///
    /// Panics if the node is missing.
    #[must_use]
    pub fn input_of(&self, node: SplitNodeId) -> Value {
        self.inputs[self.index[&node]]
    }

    /// Runs one protocol instance per `𝔾`-node for at most `max_rounds`
    /// rounds and returns each node's decided output (if any).
    ///
    /// `make` constructs the protocol instance for a `𝔾`-node from its
    /// original identity and its input; the instance's context reports the
    /// *original* graph and node id.
    pub fn run<P, F>(&self, mut make: F, max_rounds: usize) -> BTreeMap<SplitNodeId, Option<Value>>
    where
        P: Protocol,
        F: FnMut(NodeId, Value) -> P,
    {
        let mut protocols: Vec<P> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| make(node.original, self.inputs[i]))
            .collect();

        // One shared path arena and flood ledger for the doubled execution,
        // as the real simulator has one of each per run. The construction
        // deliberately gives the two copies of a node inconsistent views —
        // exactly the situation the ledger's per-node overrides absorb, so
        // the shared fabric stays sound even here.
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let observer = lbc_sim::ObserverHandle::disabled();
        // The doubled engine always delivers in lockstep — the
        // indistinguishability argument of the constructions is about
        // *views*, not timing — but regime-aware protocols still read their
        // fairness bound from the regime they are handed.
        let regime = Regime::Synchronous;

        // Start-of-execution transmissions.
        let mut pending: Vec<Vec<Outgoing<P::Message>>> = Vec::with_capacity(self.nodes.len());
        for (i, protocol) in protocols.iter_mut().enumerate() {
            let ctx = NodeContext {
                id: self.nodes[i].original,
                graph: &self.graph,
                f: self.f,
                regime: &regime,
                step: None,
                arena: &arena,
                ledger: &ledger,
                observer: &observer,
            };
            pending.push(protocol.on_start(&ctx));
        }

        for round_index in 0..max_rounds {
            if protocols.iter().all(Protocol::has_terminated) {
                break;
            }
            // Deliver: under the local broadcast physics of 𝔾, every
            // transmission (broadcast or unicast alike) is heard by every
            // receiver wired to the sender.
            let mut inboxes: Vec<Vec<Delivery<P::Message>>> = vec![Vec::new(); self.nodes.len()];
            for (sender_idx, outgoing) in pending.iter().enumerate() {
                let sender_original = self.nodes[sender_idx].original;
                for o in outgoing {
                    let message = o.message().clone();
                    for &receiver in &self.receivers[sender_idx] {
                        inboxes[receiver].push(Delivery {
                            from: sender_original,
                            message: message.clone(),
                        });
                    }
                }
            }
            // Step every protocol.
            let round = Round::new(round_index as u64);
            let mut next_pending = Vec::with_capacity(self.nodes.len());
            for (i, protocol) in protocols.iter_mut().enumerate() {
                let ctx = NodeContext {
                    id: self.nodes[i].original,
                    graph: &self.graph,
                    f: self.f,
                    regime: &regime,
                    step: Some(round),
                    arena: &arena,
                    ledger: &ledger,
                    observer: &observer,
                };
                next_pending.push(protocol.on_round(&ctx, round, Inbox::direct(&inboxes[i])));
            }
            pending = next_pending;
        }

        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (*node, protocols[i].output()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbc_graph::generators;
    use lbc_sim::EchoOnce;

    fn split_zero(i: usize) -> SplitNodeId {
        SplitNodeId::zero(NodeId::new(i))
    }

    #[test]
    fn add_nodes_and_edges() {
        let graph = generators::cycle(3);
        let mut net = DoubledNetwork::new(graph, 1);
        let a = split_zero(0);
        let b = split_zero(1);
        net.add_node(a, Value::Zero);
        net.add_node(b, Value::One);
        net.add_undirected(a, b);
        assert!(net.contains(a));
        assert!(!net.contains(SplitNodeId::one(NodeId::new(0))));
        assert_eq!(net.input_of(b), Value::One);
        assert_eq!(net.nodes().len(), 2);
        assert_eq!(net.f(), 1);
        assert_eq!(net.graph().node_count(), 3);
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_nodes_are_rejected() {
        let graph = generators::cycle(3);
        let mut net = DoubledNetwork::new(graph, 1);
        net.add_node(split_zero(0), Value::Zero);
        net.add_node(split_zero(0), Value::One);
    }

    #[test]
    fn directed_edges_deliver_one_way() {
        // Three 𝔾-nodes on a triangle graph: a -> b directed, a - c undirected.
        let graph = generators::complete(3);
        let mut net = DoubledNetwork::new(graph, 0);
        let a = split_zero(0);
        let b = split_zero(1);
        let c = split_zero(2);
        net.add_node(a, Value::One);
        net.add_node(b, Value::Zero);
        net.add_node(c, Value::Zero);
        net.add_directed(a, b);
        net.add_undirected(a, c);
        let outputs = net.run(|_, input| EchoOnce::new(input), 5);
        // Everyone decides its own input (EchoOnce semantics).
        assert_eq!(outputs[&a], Some(Value::One));
        assert_eq!(outputs[&b], Some(Value::Zero));
        assert_eq!(outputs[&c], Some(Value::Zero));
    }
}
