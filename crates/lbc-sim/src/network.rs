//! The regime-abstracted network engine.
//!
//! One [`Network`] executes one [`Protocol`] instance per node under an
//! execution [`Regime`]:
//!
//! * **synchronous** — lockstep rounds: round `r`'s transmissions are
//!   delivered to every receiver at round `r + 1`;
//! * **asynchronous** — every `(transmission, receiver)` pair is scheduled
//!   individually by the regime's deterministic scheduler, subject to the
//!   eventual-fairness bound (a transmission reaches each receiver within
//!   `D` steps) and per-edge FIFO order (a physical local-broadcast channel
//!   delivers one sender's transmissions in order, whatever the lag).
//!
//! A one-shot run ([`Network::run_under`]) is a chain of one instance, so
//! the two step loops live with the chained driver in the `chain` module;
//! this module holds what they share. Both regimes use the zero-clone
//! delivery fabric: a transmission lives once in a shared buffer and
//! inboxes are slot indices into it.

use lbc_graph::Graph;
use lbc_model::{
    ChannelEvent, CommModel, NodeId, NodeSet, Regime, Round, SharedFloodLedger, SharedPathArena,
    Value,
};
use lbc_telemetry::{Event, MessageView, Moment, ObserverHandle};

use crate::adversary::Adversary;
use crate::cancel::CancelToken;
use crate::chain::{InstanceReport, Window};
use crate::protocol::{Delivery, Inbox, NodeContext, Outgoing, Protocol};
use crate::trace::{RoundStats, Trace};

/// Diffs a faulty node's honest outgoing set against what its adversary
/// actually transmitted, as `(tampered, omitted, equivocated)`: unmatched
/// actual transmissions are paired against unmatched honest ones as in-place
/// tampering; honest leftovers were omitted; actual leftovers beyond that
/// are injected conflicts (equivocation pressure).
fn interference_counts<M: PartialEq>(
    honest: &[Outgoing<M>],
    actual: &[Outgoing<M>],
) -> (usize, usize, usize) {
    let mut matched = vec![false; honest.len()];
    let mut injected = 0usize;
    for transmission in actual {
        match honest
            .iter()
            .enumerate()
            .find(|(i, h)| !matched[*i] && *h == transmission)
        {
            Some((i, _)) => matched[i] = true,
            None => injected += 1,
        }
    }
    let unmatched = matched.iter().filter(|m| !**m).count();
    let tampered = unmatched.min(injected);
    (tampered, unmatched - tampered, injected - tampered)
}

/// The result of running a simulation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Decided output per node (`None` when the node did not decide before
    /// the round limit).
    pub outputs: Vec<Option<Value>>,
    /// Whether every non-faulty node reported termination before the round
    /// limit.
    pub all_non_faulty_terminated: bool,
    /// Round and message accounting for the execution.
    pub trace: Trace,
}

impl RunReport {
    /// The decided output of `node`, if it decided.
    #[must_use]
    pub fn output_of(&self, node: NodeId) -> Option<Value> {
        self.outputs.get(node.index()).copied().flatten()
    }
}

/// A synchronous network executing one [`Protocol`] instance per node.
///
/// See the crate-level documentation for the delivery semantics of each
/// [`CommModel`].
#[derive(Debug)]
pub struct Network<P: Protocol> {
    pub(crate) graph: Graph,
    pub(crate) model: CommModel,
    pub(crate) faulty: NodeSet,
    pub(crate) f: usize,
    pub(crate) nodes: Vec<P>,
    /// The execution-wide path-interning arena shared by all nodes.
    pub(crate) arena: SharedPathArena,
    /// The execution-wide shared flood ledger (broadcast-once records).
    pub(crate) ledger: SharedFloodLedger,
    /// The telemetry sink. Disabled by default: every emission site then
    /// costs one branch and constructs nothing.
    pub(crate) observer: ObserverHandle,
    /// Cooperative cancellation: adopted from the thread's ambient token
    /// ([`crate::cancel::install_ambient`]) at construction. Checked at the
    /// top of every step loop; `None` costs nothing.
    pub(crate) cancel: Option<CancelToken>,
}

impl<P: Protocol> Network<P> {
    /// Creates a network over `graph` with one protocol instance per node.
    ///
    /// `faulty` identifies the nodes controlled by the adversary; the
    /// declared fault tolerance passed to protocol hooks defaults to
    /// `faulty.len()` and can be overridden with [`Network::with_fault_bound`].
    ///
    /// # Panics
    ///
    /// Panics if the number of protocol instances differs from the number of
    /// graph nodes, or if a faulty node id is out of range.
    #[must_use]
    pub fn new(graph: Graph, model: CommModel, faulty: NodeSet, nodes: Vec<P>) -> Self {
        assert_eq!(
            nodes.len(),
            graph.node_count(),
            "need exactly one protocol instance per node"
        );
        assert!(
            faulty.iter().all(|v| graph.contains_node(v)),
            "faulty set contains a node outside the graph"
        );
        let f = faulty.len();
        Network {
            graph,
            model,
            faulty,
            f,
            nodes,
            arena: SharedPathArena::new(),
            ledger: SharedFloodLedger::new(),
            observer: ObserverHandle::disabled(),
            cancel: crate::cancel::ambient(),
        }
    }

    /// Whether the ambient cancellation token (if any) has fired. One
    /// relaxed load; `false` when no token is installed.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Overrides the declared fault tolerance `f` exposed to protocol hooks
    /// (by default it equals the number of actually-faulty nodes).
    #[must_use]
    pub fn with_fault_bound(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Attaches a telemetry sink: the run emits the deterministic structured
    /// event stream into it (the default is the disabled handle, which
    /// emits nothing and costs one branch per site).
    #[must_use]
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// The communication graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The set of faulty nodes.
    #[must_use]
    pub fn faulty(&self) -> &NodeSet {
        &self.faulty
    }

    /// Read access to a node's protocol instance.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &P {
        &self.nodes[node.index()]
    }

    /// Runs the simulation under `regime` for at most `max_rounds` steps,
    /// driving faulty nodes through `adversary`. Stops early once every
    /// non-faulty node reports termination.
    ///
    /// The run is a chain of one instance ([`Network::run_chain`]). Under
    /// the synchronous regime a step is a lockstep round. Under an
    /// asynchronous regime every protocol's `on_round` hook is still
    /// invoked once per step — with whatever subset of in-flight
    /// transmissions the scheduler released to that node, which may be
    /// empty — so regime-aware protocols can count steps against the
    /// fairness bound exposed by [`NodeContext::regime`].
    pub fn run_under<A>(
        &mut self,
        regime: &Regime,
        adversary: &mut A,
        max_rounds: usize,
    ) -> RunReport
    where
        A: Adversary<P::Message>,
    {
        if self.observer.enabled() {
            // The ledger's channel-event log exists only for the observer;
            // enabling it here keeps uninstrumented runs at one branch per
            // channel operation.
            self.ledger.set_event_log(true);
            self.observer.emit(|| Event::RunStart {
                n: self.nodes.len(),
                f: self.f,
                regime: format!("{regime:?}"),
            });
        }
        let (mut reports, _) = self.run_chain(regime, adversary, max_rounds, 1, |_| {
            unreachable!("a one-shot run has a single instance")
        });
        let InstanceReport {
            outputs,
            all_non_faulty_terminated,
            trace,
            ..
        } = reports.pop().expect("a chain reports its first instance");
        if self.observer.enabled() {
            self.observer.emit(|| Event::RunEnd {
                rounds: trace.rounds(),
                arena_paths: self.arena.borrow().entry_count(),
                live_channels: self.ledger.borrow().live_channels(),
                allocated_channels: self.ledger.borrow().allocated_channels(),
            });
            self.ledger.set_event_log(false);
        }
        RunReport {
            outputs,
            all_non_faulty_terminated,
            trace,
        }
    }

    /// Applies the communication model to freshly collected transmissions,
    /// appends each to `window` stamped with the emitting instance `owner`,
    /// and schedules one delivery event per `(transmission, receiver)` pair.
    /// `base` is the earliest step a lag-1 delivery may land on, and
    /// `lags[from * n + to]` is the edge's lag in `1..=D`, drawn once per
    /// chain from [`lbc_model::AsyncRegime::lag`]. Under
    /// partial synchrony (`psync = Some`), events of held senders with
    /// `base < gst` go to `held` instead of the ring, and the edge's FIFO
    /// clamp advances to `gst` so later fair deliveries on that edge cannot
    /// overtake the burst. Because a held sender has **all** of its pre-GST
    /// transmissions held, and held events release in transmission order,
    /// per-edge FIFO — and with it the flood fabric's
    /// same-first-message-per-key invariant — survives the burst.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enqueue_async(
        &self,
        lags: &[u64],
        psync: Option<(u64, lbc_model::AdversarialSchedule)>,
        pending: Vec<Vec<Outgoing<P::Message>>>,
        base: u64,
        produced_at: Moment,
        window: &mut Window<P::Message>,
        owner: u32,
        due: &mut [Vec<(u32, u32)>],
        edge_last: &mut [u64],
        held: &mut Vec<(u32, u32)>,
        stats: &mut RoundStats,
    ) {
        let n = self.nodes.len();
        let horizon = due.len() as u64;
        let observer = &self.observer;
        let mut schedule = |index: u32, slot: u64, from: NodeId, to: NodeId| {
            let edge = from.index() * n + to.index();
            if let Some((gst, pre)) = psync {
                if base < gst && pre.holds(from.index()) {
                    held.push((index, to.index() as u32));
                    edge_last[edge] = edge_last[edge].max(gst);
                    observer.emit(|| Event::Held {
                        at: produced_at,
                        from,
                        to,
                        slot,
                    });
                    return;
                }
            }
            let lag = lags[edge];
            // `base` is already the lag-1 landing step, so the extra lag
            // beyond 1 is added on top; the FIFO clamp keeps one edge's
            // deliveries in transmission order.
            let at = (base + (lag - 1)).max(edge_last[edge]);
            edge_last[edge] = at;
            due[(at % horizon) as usize].push((index, to.index() as u32));
            observer.emit(|| Event::Scheduled {
                at: produced_at,
                from,
                to,
                lag,
                due: at,
                // Pending events across the whole due-ring plus the held
                // set, counting this one; computed only when observed.
                queue_depth: due.iter().map(Vec::len).sum::<usize>() + held.len(),
            });
        };
        for (sender_index, sender_pending) in pending.into_iter().enumerate() {
            let sender = NodeId::new(sender_index);
            let can_equivocate = self.model.allows_equivocation(sender);
            for outgoing in sender_pending {
                stats.transmissions += 1;
                let is_broadcast = matches!(outgoing, Outgoing::Broadcast(_));
                match outgoing {
                    Outgoing::Unicast(target, message) if can_equivocate => {
                        if self.graph.has_edge(sender, target) {
                            let index = window.push(
                                Delivery {
                                    from: sender,
                                    message,
                                },
                                owner,
                            );
                            let slot = window.number(index);
                            self.observer.emit(|| Event::Transmission {
                                at: produced_at,
                                from: sender,
                                slot,
                                broadcast: is_broadcast,
                                meta: window.get(index).message.meta(&self.arena),
                            });
                            schedule(index, slot, sender, target);
                        }
                    }
                    Outgoing::Broadcast(message) | Outgoing::Unicast(_, message) => {
                        let index = window.push(
                            Delivery {
                                from: sender,
                                message,
                            },
                            owner,
                        );
                        let slot = window.number(index);
                        self.observer.emit(|| Event::Transmission {
                            at: produced_at,
                            from: sender,
                            slot,
                            broadcast: is_broadcast,
                            meta: window.get(index).message.meta(&self.arena),
                        });
                        for neighbor in self.graph.neighbors(sender) {
                            schedule(index, slot, sender, neighbor);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn all_non_faulty_terminated(&self) -> bool {
        self.graph
            .nodes()
            .filter(|v| !self.faulty.contains(*v))
            .all(|v| self.nodes[v.index()].has_terminated())
    }

    /// Runs every node's protocol hook for the given round (or the start
    /// hook when `round` is `None`), passing faulty nodes' output through the
    /// adversary. Node `v`'s inbox is `slots[v]`, indices into `buffer`,
    /// whose first entry is transmission number `first`. While observed, interference the adversary applies
    /// (tamper / omit / equivocate, measured by diffing honest against
    /// actual output) is added into `interference`. The diff clones the
    /// honest set and is quadratic in it, so it runs only under an enabled
    /// observer — unobserved runs keep the pre-telemetry hot path and
    /// report zero interference counts.
    pub(crate) fn collect_outgoing<A>(
        &mut self,
        regime: &Regime,
        adversary: &mut A,
        round: Option<Round>,
        (buffer, first): (&[Delivery<P::Message>], u64),
        slots: &[Vec<u32>],
        interference: &mut RoundStats,
    ) -> Vec<Vec<Outgoing<P::Message>>>
    where
        A: Adversary<P::Message>,
    {
        let at = match round {
            None => Moment::Start,
            Some(r) => Moment::Step(r.value()),
        };
        let observing = self.observer.enabled();
        let mut all_outgoing = Vec::with_capacity(self.nodes.len());
        for (v, node) in self.nodes.iter_mut().enumerate() {
            let id = NodeId::new(v);
            let ctx = NodeContext {
                id,
                graph: &self.graph,
                f: self.f,
                regime,
                step: round,
                arena: &self.arena,
                ledger: &self.ledger,
                observer: &self.observer,
            };
            let inbox = Inbox::windowed(buffer, first, &slots[v]);
            let was_decided = observing && node.output().is_some();
            let honest = match round {
                None => node.on_start(&ctx),
                Some(r) => node.on_round(&ctx, r, inbox),
            };
            let outgoing = if self.faulty.contains(id) {
                if observing {
                    let actual = adversary.intercept(&ctx, round, honest.clone(), inbox);
                    let (tampered, omitted, equivocated) = interference_counts(&honest, &actual);
                    interference.tampered += tampered;
                    interference.omitted += omitted;
                    interference.equivocated += equivocated;
                    if tampered + omitted + equivocated > 0 {
                        self.observer.emit(|| Event::AdversaryAction {
                            at,
                            node: id,
                            tampered,
                            omitted,
                            equivocated,
                        });
                    }
                    actual
                } else {
                    adversary.intercept(&ctx, round, honest, inbox)
                }
            } else {
                honest
            };
            if observing && !was_decided {
                if let Some(value) = node.output() {
                    self.observer.emit(|| Event::NodeDecided {
                        at,
                        node: id,
                        value,
                        evidence: node.decision_evidence(),
                    });
                }
            }
            all_outgoing.push(outgoing);
        }
        // Protocol hooks open and retire ledger channels; translate the
        // ledger's internal log (enabled only while observing) into events.
        if observing {
            for channel_event in self.ledger.take_channel_events() {
                self.observer.emit(|| match channel_event {
                    ChannelEvent::Opened {
                        tag,
                        epoch,
                        channel,
                    } => Event::ChannelOpened {
                        tag,
                        epoch,
                        channel,
                    },
                    ChannelEvent::Retired {
                        tag,
                        epoch,
                        channel,
                    } => Event::ChannelRetired {
                        tag,
                        epoch,
                        channel,
                    },
                });
            }
        }
        all_outgoing
    }

    /// Applies the communication model to the pending transmissions of the
    /// lockstep loop, produced one round before `round`: moves each message
    /// **once** into the shared round buffer and fills each node's inbox
    /// with slot indices, returning the round's statistics. No message is
    /// ever cloned, no matter how many neighbors receive it.
    ///
    /// Deliveries are ordered by sender id and, per sender, by transmission
    /// order (FIFO links).
    pub(crate) fn deliver(
        &self,
        pending: Vec<Vec<Outgoing<P::Message>>>,
        buffer: &mut Vec<Delivery<P::Message>>,
        slots: &mut [Vec<u32>],
        round: Round,
    ) -> RoundStats {
        buffer.clear();
        for inbox in slots.iter_mut() {
            inbox.clear();
        }
        let step = round.value();
        let produced_at = step.checked_sub(1).map_or(Moment::Start, Moment::Step);
        let mut stats = RoundStats::default();
        for (sender_index, sender_pending) in pending.into_iter().enumerate() {
            let sender = NodeId::new(sender_index);
            let can_equivocate = self.model.allows_equivocation(sender);
            for outgoing in sender_pending {
                stats.transmissions += 1;
                let slot = u32::try_from(buffer.len()).expect("round buffer overflow");
                let is_broadcast = matches!(outgoing, Outgoing::Broadcast(_));
                match outgoing {
                    Outgoing::Unicast(target, message) if can_equivocate => {
                        // Point-to-point semantics: only the addressed
                        // neighbor receives the message (and only if it
                        // actually is a neighbor).
                        if self.graph.has_edge(sender, target) {
                            buffer.push(Delivery {
                                from: sender,
                                message,
                            });
                            self.observer.emit(|| Event::Transmission {
                                at: produced_at,
                                from: sender,
                                slot: u64::from(slot),
                                broadcast: is_broadcast,
                                meta: buffer[slot as usize].message.meta(&self.arena),
                            });
                            slots[target.index()].push(slot);
                            stats.deliveries += 1;
                            self.observer.emit(|| Event::Delivery {
                                step,
                                to: target,
                                from: sender,
                                slot: u64::from(slot),
                                meta: buffer[slot as usize].message.meta(&self.arena),
                            });
                        }
                    }
                    Outgoing::Broadcast(message) | Outgoing::Unicast(_, message) => {
                        // Local broadcast physics: the transmission is
                        // overheard by every neighbor, regardless of any
                        // intended addressee.
                        buffer.push(Delivery {
                            from: sender,
                            message,
                        });
                        self.observer.emit(|| Event::Transmission {
                            at: produced_at,
                            from: sender,
                            slot: u64::from(slot),
                            broadcast: is_broadcast,
                            meta: buffer[slot as usize].message.meta(&self.arena),
                        });
                        for neighbor in self.graph.neighbors(sender) {
                            slots[neighbor.index()].push(slot);
                            stats.deliveries += 1;
                            self.observer.emit(|| Event::Delivery {
                                step,
                                to: neighbor,
                                from: sender,
                                slot: u64::from(slot),
                                meta: buffer[slot as usize].message.meta(&self.arena),
                            });
                        }
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{honest_adversary, HonestAdversary};
    use crate::protocol::EchoOnce;
    use lbc_graph::generators;
    use lbc_model::Value;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn echo_nodes(graph: &Graph) -> Vec<EchoOnce> {
        graph
            .nodes()
            .map(|v| EchoOnce::new(Value::from(v.index() % 2 == 0)))
            .collect()
    }

    #[test]
    fn echo_run_terminates_and_counts_messages() {
        let graph = generators::cycle(4);
        let nodes = echo_nodes(&graph);
        let mut network = Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
        let report = network.run_under(&Regime::Synchronous, &mut honest_adversary(), 10);
        assert!(report.all_non_faulty_terminated);
        // 4 broadcasts in the start step, delivered to 2 neighbors each.
        assert_eq!(report.trace.total_transmissions(), 4);
        assert_eq!(report.trace.total_deliveries(), 8);
        assert_eq!(report.trace.rounds(), 1);
        assert_eq!(report.output_of(n(0)), Some(Value::One));
        assert_eq!(report.output_of(n(1)), Some(Value::Zero));
    }

    #[test]
    fn each_node_hears_all_its_neighbors() {
        let graph = generators::complete(4);
        let nodes = echo_nodes(&graph);
        let mut network = Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
        let _ = network.run_under(&Regime::Synchronous, &mut honest_adversary(), 10);
        for v in 0..4 {
            let heard = network.node(n(v)).heard();
            assert_eq!(heard.len(), 3, "node {v} should hear 3 neighbors");
        }
    }

    /// A probe protocol that unicasts distinct values to its two smallest
    /// neighbors, used to test equivocation enforcement.
    #[derive(Debug)]
    struct SplitSender {
        done: bool,
    }

    impl Protocol for SplitSender {
        type Message = Value;

        fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
            let neighbors: Vec<NodeId> = ctx.neighbors().iter().collect();
            vec![
                Outgoing::Unicast(neighbors[0], Value::Zero),
                Outgoing::Unicast(neighbors[1], Value::One),
            ]
        }

        fn on_round(
            &mut self,
            _ctx: &NodeContext<'_>,
            _round: Round,
            _inbox: Inbox<'_, Value>,
        ) -> Vec<Outgoing<Value>> {
            self.done = true;
            Vec::new()
        }

        fn output(&self) -> Option<Value> {
            if self.done {
                Some(Value::Zero)
            } else {
                None
            }
        }
    }

    /// A probe that records everything it hears and never sends.
    #[derive(Debug, Default)]
    struct Listener {
        heard: Vec<(NodeId, Value)>,
        done: bool,
    }

    impl Protocol for Listener {
        type Message = Value;

        fn on_start(&mut self, _ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
            Vec::new()
        }

        fn on_round(
            &mut self,
            _ctx: &NodeContext<'_>,
            _round: Round,
            inbox: Inbox<'_, Value>,
        ) -> Vec<Outgoing<Value>> {
            for d in inbox.iter() {
                self.heard.push((d.from, d.message));
            }
            self.done = true;
            Vec::new()
        }

        fn output(&self) -> Option<Value> {
            if self.done {
                Some(Value::Zero)
            } else {
                None
            }
        }
    }

    /// Under local broadcast, a unicast is overheard by every neighbor, so the
    /// "equivocation" of SplitSender is detected: both neighbors hear both
    /// values. Under point-to-point each neighbor hears only its own value.
    #[derive(Debug)]
    enum Probe {
        Split(SplitSender),
        Listen(Listener),
    }

    impl Protocol for Probe {
        type Message = Value;

        fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
            match self {
                Probe::Split(p) => p.on_start(ctx),
                Probe::Listen(p) => p.on_start(ctx),
            }
        }

        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            round: Round,
            inbox: Inbox<'_, Value>,
        ) -> Vec<Outgoing<Value>> {
            match self {
                Probe::Split(p) => p.on_round(ctx, round, inbox),
                Probe::Listen(p) => p.on_round(ctx, round, inbox),
            }
        }

        fn output(&self) -> Option<Value> {
            match self {
                Probe::Split(p) => p.output(),
                Probe::Listen(p) => p.output(),
            }
        }
    }

    fn probe_network(model: CommModel) -> Vec<Vec<(NodeId, Value)>> {
        // Triangle; node 0 is the split sender, nodes 1 and 2 listen.
        let graph = generators::complete(3);
        let nodes = vec![
            Probe::Split(SplitSender { done: false }),
            Probe::Listen(Listener::default()),
            Probe::Listen(Listener::default()),
        ];
        let mut network = Network::new(graph, model, NodeSet::new(), nodes);
        let _ = network.run_under(&Regime::Synchronous, &mut HonestAdversary, 5);
        (1..3)
            .map(|i| match network.node(n(i)) {
                Probe::Listen(l) => l.heard.clone(),
                Probe::Split(_) => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn local_broadcast_overhears_unicasts() {
        let heard = probe_network(CommModel::LocalBroadcast);
        // Both listeners hear both transmissions of node 0.
        assert_eq!(heard[0].len(), 2);
        assert_eq!(heard[1].len(), 2);
        assert_eq!(heard[0], heard[1]);
    }

    #[test]
    fn point_to_point_delivers_unicasts_privately() {
        let heard = probe_network(CommModel::PointToPoint);
        assert_eq!(heard[0].len(), 1);
        assert_eq!(heard[1].len(), 1);
        assert_eq!(heard[0][0].1, Value::Zero);
        assert_eq!(heard[1][0].1, Value::One);
    }

    #[test]
    fn hybrid_model_only_lets_listed_nodes_equivocate() {
        // Node 0 equivocating: point-to-point behaviour.
        let graph = generators::complete(3);
        let nodes = vec![
            Probe::Split(SplitSender { done: false }),
            Probe::Listen(Listener::default()),
            Probe::Listen(Listener::default()),
        ];
        let mut network = Network::new(graph, CommModel::hybrid([n(0)]), NodeSet::new(), nodes);
        let _ = network.run_under(&Regime::Synchronous, &mut HonestAdversary, 5);
        let heard1 = match network.node(n(1)) {
            Probe::Listen(l) => l.heard.clone(),
            Probe::Split(_) => unreachable!(),
        };
        assert_eq!(heard1.len(), 1);

        // Node 0 not in the equivocator list: overheard by everyone.
        let graph = generators::complete(3);
        let nodes = vec![
            Probe::Split(SplitSender { done: false }),
            Probe::Listen(Listener::default()),
            Probe::Listen(Listener::default()),
        ];
        let mut network = Network::new(graph, CommModel::hybrid([n(2)]), NodeSet::new(), nodes);
        let _ = network.run_under(&Regime::Synchronous, &mut HonestAdversary, 5);
        let heard1 = match network.node(n(1)) {
            Probe::Listen(l) => l.heard.clone(),
            Probe::Split(_) => unreachable!(),
        };
        assert_eq!(heard1.len(), 2);
    }

    #[test]
    fn adversary_controls_only_faulty_nodes() {
        let graph = generators::complete(3);
        let nodes = echo_nodes(&graph);
        let faulty = NodeSet::singleton(n(0));
        let mut network = Network::new(graph, CommModel::LocalBroadcast, faulty, nodes);
        // Adversary silences the faulty node.
        let mut silence = |_ctx: &NodeContext<'_>,
                           _round: Option<Round>,
                           _honest: Vec<Outgoing<Value>>,
                           _inbox: Inbox<'_, Value>| Vec::new();
        let report = network.run_under(&Regime::Synchronous, &mut silence, 5);
        assert!(report.all_non_faulty_terminated);
        // Nodes 1 and 2 hear only each other (the faulty node sent nothing).
        assert_eq!(network.node(n(1)).heard().len(), 1);
        assert_eq!(network.node(n(2)).heard().len(), 1);
        // The faulty node's instance still ran and heard its neighbors.
        assert_eq!(network.node(n(0)).heard().len(), 2);
    }

    #[test]
    fn with_fault_bound_overrides_declared_f() {
        let graph = generators::cycle(4);
        let nodes = echo_nodes(&graph);
        let network = Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes)
            .with_fault_bound(2);
        assert_eq!(network.f, 2);
    }

    /// A probe that transmits two ordered broadcasts at start and records
    /// every delivery as `(step, from, value)`.
    #[derive(Debug)]
    struct OrderProbe {
        steps: u64,
        heard: Vec<(u64, NodeId, Value)>,
        quiet: bool,
        done: bool,
    }

    impl OrderProbe {
        fn sender() -> Self {
            OrderProbe {
                steps: 0,
                heard: Vec::new(),
                quiet: false,
                done: false,
            }
        }

        fn listener() -> Self {
            OrderProbe {
                steps: 0,
                heard: Vec::new(),
                quiet: true,
                done: false,
            }
        }
    }

    impl Protocol for OrderProbe {
        type Message = Value;

        fn on_start(&mut self, _ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
            if self.quiet {
                Vec::new()
            } else {
                // Two transmissions in one step: per-edge FIFO must deliver
                // Zero before One at every receiver, whatever the lags.
                vec![
                    Outgoing::Broadcast(Value::Zero),
                    Outgoing::Broadcast(Value::One),
                ]
            }
        }

        fn on_round(
            &mut self,
            _ctx: &NodeContext<'_>,
            _round: Round,
            inbox: Inbox<'_, Value>,
        ) -> Vec<Outgoing<Value>> {
            let step = self.steps;
            self.steps += 1;
            for delivery in inbox.iter() {
                self.heard.push((step, delivery.from, delivery.message));
            }
            // Terminate late enough for every lag to play out.
            if step >= 12 {
                self.done = true;
            }
            Vec::new()
        }

        fn output(&self) -> Option<Value> {
            self.done.then_some(Value::Zero)
        }
    }

    fn async_regime(scheduler: lbc_model::SchedulerKind, delay: u32, seed: u64) -> Regime {
        Regime::Asynchronous(lbc_model::AsyncRegime {
            scheduler,
            delay,
            seed,
        })
    }

    #[test]
    fn async_lag_one_fifo_matches_the_synchronous_regime() {
        let make = || {
            let graph = generators::cycle(4);
            let nodes = echo_nodes(&graph);
            Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes)
        };
        let sync_report = make().run_under(&Regime::Synchronous, &mut honest_adversary(), 10);
        let mut network = make();
        let regime = async_regime(lbc_model::SchedulerKind::Fifo, 1, 99);
        let async_report = network.run_under(&regime, &mut honest_adversary(), 10);
        assert_eq!(async_report.outputs, sync_report.outputs);
        assert_eq!(async_report.trace.rounds(), sync_report.trace.rounds());
        assert_eq!(
            async_report.trace.total_transmissions(),
            sync_report.trace.total_transmissions()
        );
        assert_eq!(
            async_report.trace.total_deliveries(),
            sync_report.trace.total_deliveries()
        );
    }

    #[test]
    fn async_deliveries_respect_fairness_and_per_edge_fifo() {
        for scheduler in lbc_model::SchedulerKind::all() {
            for seed in [0, 7, 991] {
                let delay = 4u32;
                let graph = generators::complete(3);
                let nodes = vec![
                    OrderProbe::sender(),
                    OrderProbe::listener(),
                    OrderProbe::listener(),
                ];
                let mut network =
                    Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
                let regime = async_regime(scheduler, delay, seed);
                let _ = network.run_under(&regime, &mut HonestAdversary, 40);
                for listener in [1, 2] {
                    let heard = &network.node(n(listener)).heard;
                    let from_sender: Vec<&(u64, NodeId, Value)> =
                        heard.iter().filter(|(_, from, _)| *from == n(0)).collect();
                    assert_eq!(
                        from_sender.len(),
                        2,
                        "{}/{seed}: listener {listener} missed a delivery",
                        scheduler.name()
                    );
                    // Eventual fairness: start transmissions land within the
                    // first `delay` steps.
                    for (step, _, _) in &from_sender {
                        assert!(
                            *step < u64::from(delay),
                            "{}/{seed}: delivery at step {step} breaks the bound",
                            scheduler.name()
                        );
                    }
                    // Per-edge FIFO: Zero (sent first) arrives no later than
                    // One, and when they share a step, in transmission order.
                    assert_eq!(from_sender[0].2, Value::Zero);
                    assert_eq!(from_sender[1].2, Value::One);
                    assert!(from_sender[0].0 <= from_sender[1].0);
                }
            }
        }
    }

    #[test]
    fn async_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let graph = generators::cycle(5);
            let nodes = echo_nodes(&graph);
            let mut network = Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
            let regime = async_regime(lbc_model::SchedulerKind::EdgeLag, 5, seed);
            let report = network.run_under(&regime, &mut honest_adversary(), 40);
            (
                report.outputs.clone(),
                report.trace.rounds(),
                report.trace.total_deliveries(),
            )
        };
        assert_eq!(run(3), run(3));
        assert_eq!(run(4), run(4));
    }

    fn psync_regime(
        gst: u32,
        hold: &[usize],
        scheduler: lbc_model::SchedulerKind,
        delay: u32,
        seed: u64,
    ) -> Regime {
        Regime::PartialSync {
            gst,
            pre: lbc_model::AdversarialSchedule::holding(hold),
            post: lbc_model::AsyncRegime {
                scheduler,
                delay,
                seed,
            },
        }
    }

    /// Runs an all-senders [`OrderProbe`] network under `regime` and returns
    /// the full per-node delivery log — every `(step, from, value)` at every
    /// node — plus the outputs and trace counters, i.e. the step-for-step
    /// observable behaviour of the run.
    #[allow(clippy::type_complexity)]
    fn probe_run_under(
        regime: &Regime,
    ) -> (
        Vec<Vec<(u64, NodeId, Value)>>,
        Vec<Option<Value>>,
        usize,
        usize,
    ) {
        let graph = generators::cycle(5);
        let nodes: Vec<OrderProbe> = graph.nodes().map(|_| OrderProbe::sender()).collect();
        let mut network = Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
        let report = network.run_under(regime, &mut HonestAdversary, 40);
        let heard = (0..5).map(|i| network.node(n(i)).heard.clone()).collect();
        (
            heard,
            report.outputs.clone(),
            report.trace.total_transmissions(),
            report.trace.total_deliveries(),
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// A partial-synchrony run with `gst = 0` IS the equivalent
        /// asynchronous run, step for step: with no pre-GST window the hold
        /// branch is unreachable whatever the hold-set, and the post-GST
        /// scheduler governs from step 0 on.
        #[test]
        fn psync_with_gst_zero_equals_the_asynchronous_run(
            kind in 0usize..3,
            delay in 1u32..6,
            seed in any::<u64>(),
            hold in 0u64..32,
        ) {
            let scheduler = lbc_model::SchedulerKind::all()[kind];
            let config = lbc_model::AsyncRegime { scheduler, delay, seed };
            let held: Vec<usize> = (0..5).filter(|i| hold & (1 << i) != 0).collect();
            let psync = Regime::PartialSync {
                gst: 0,
                pre: lbc_model::AdversarialSchedule::holding(&held),
                post: config,
            };
            prop_assert_eq!(
                probe_run_under(&psync),
                probe_run_under(&Regime::Asynchronous(config))
            );
        }
    }

    #[test]
    fn psync_holds_pre_gst_transmissions_and_bursts_them_at_gst() {
        let gst = 6u32;
        for scheduler in lbc_model::SchedulerKind::all() {
            for seed in [0, 7, 991] {
                let graph = generators::complete(3);
                let nodes = vec![
                    OrderProbe::sender(),
                    OrderProbe::listener(),
                    OrderProbe::listener(),
                ];
                let mut network =
                    Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
                let regime = psync_regime(gst, &[0], scheduler, 2, seed);
                let _ = network.run_under(&regime, &mut HonestAdversary, 40);
                for listener in [1, 2] {
                    let heard = &network.node(n(listener)).heard;
                    let from_sender: Vec<&(u64, NodeId, Value)> =
                        heard.iter().filter(|(_, from, _)| *from == n(0)).collect();
                    assert_eq!(
                        from_sender.len(),
                        2,
                        "{}/{seed}: listener {listener} missed a held delivery",
                        scheduler.name()
                    );
                    // Both start-of-execution transmissions of the held
                    // sender burst-arrive exactly at GST — never before
                    // (held) and never after (released into the gst step) —
                    // in per-edge FIFO order.
                    for (step, _, _) in &from_sender {
                        assert_eq!(
                            *step,
                            u64::from(gst),
                            "{}/{seed}: held delivery landed at step {step}, not at GST",
                            scheduler.name()
                        );
                    }
                    assert_eq!(from_sender[0].2, Value::Zero);
                    assert_eq!(from_sender[1].2, Value::One);
                }
            }
        }
    }

    #[test]
    fn psync_burst_does_not_overtake_later_sends_on_the_held_edge() {
        /// Sends `Zero` at start and `One` mid-run (step 4, straddling the
        /// GST-6 boundary for fairness bounds up to 3): whatever landing
        /// step the scheduler picks for `One`, per-edge FIFO demands the
        /// held `Zero` burst never arrives after it.
        #[derive(Debug)]
        struct LateSender {
            steps: u64,
            heard: Vec<(u64, NodeId, Value)>,
        }
        impl Protocol for LateSender {
            type Message = Value;
            fn on_start(&mut self, _ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
                vec![Outgoing::Broadcast(Value::Zero)]
            }
            fn on_round(
                &mut self,
                _ctx: &NodeContext<'_>,
                _round: Round,
                inbox: Inbox<'_, Value>,
            ) -> Vec<Outgoing<Value>> {
                let step = self.steps;
                self.steps += 1;
                for delivery in inbox.iter() {
                    self.heard.push((step, delivery.from, delivery.message));
                }
                if step == 4 {
                    vec![Outgoing::Broadcast(Value::One)]
                } else {
                    Vec::new()
                }
            }
            fn output(&self) -> Option<Value> {
                (self.steps > 20).then_some(Value::Zero)
            }
        }

        let gst = 6u32;
        for scheduler in lbc_model::SchedulerKind::all() {
            for seed in [3, 17, 401] {
                let graph = generators::complete(2);
                let nodes = (0..2)
                    .map(|_| LateSender {
                        steps: 0,
                        heard: Vec::new(),
                    })
                    .collect();
                let mut network =
                    Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
                let regime = psync_regime(gst, &[0], scheduler, 3, seed);
                let _ = network.run_under(&regime, &mut HonestAdversary, 40);
                let heard: Vec<&(u64, NodeId, Value)> = network
                    .node(n(1))
                    .heard
                    .iter()
                    .filter(|(_, from, _)| *from == n(0))
                    .collect();
                assert_eq!(
                    heard.len(),
                    2,
                    "{}/{seed}: listener missed a delivery from the held sender",
                    scheduler.name()
                );
                // The held start transmission bursts at GST…
                assert_eq!(heard[0].2, Value::Zero);
                assert_eq!(heard[0].0, u64::from(gst), "{}/{seed}", scheduler.name());
                // …and the mid-run transmission never overtakes it.
                assert_eq!(heard[1].2, Value::One);
                assert!(heard[1].0 >= heard[0].0, "{}/{seed}", scheduler.name());
            }
        }
    }

    #[test]
    fn psync_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let regime = psync_regime(7, &[1, 3], lbc_model::SchedulerKind::EdgeLag, 3, seed);
            probe_run_under(&regime)
        };
        assert_eq!(run(3), run(3));
        assert_eq!(run(4), run(4));
        assert_ne!(
            run(3).0,
            probe_run_under(&async_regime(lbc_model::SchedulerKind::EdgeLag, 3, 3)).0
        );
    }

    #[test]
    #[should_panic(expected = "one protocol instance per node")]
    fn mismatched_protocol_count_panics() {
        let graph = generators::cycle(4);
        let nodes = vec![EchoOnce::new(Value::One)];
        let _ = Network::new(graph, CommModel::LocalBroadcast, NodeSet::new(), nodes);
    }

    #[test]
    fn unicast_to_non_neighbor_is_dropped_under_point_to_point() {
        #[derive(Debug)]
        struct BadSender {
            done: bool,
        }
        impl Protocol for BadSender {
            type Message = Value;
            fn on_start(&mut self, _ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
                // Node 0 and node 2 are not adjacent in a path graph 0-1-2.
                vec![Outgoing::Unicast(NodeId::new(2), Value::One)]
            }
            fn on_round(
                &mut self,
                _ctx: &NodeContext<'_>,
                _round: Round,
                _inbox: Inbox<'_, Value>,
            ) -> Vec<Outgoing<Value>> {
                self.done = true;
                Vec::new()
            }
            fn output(&self) -> Option<Value> {
                self.done.then_some(Value::Zero)
            }
        }
        let graph = generators::path_graph(3);
        // Wrap in Probe-like enum is unnecessary; use BadSender for node 0 and
        // listeners elsewhere via a homogeneous protocol: reuse BadSender for
        // all nodes (only node 0's message matters).
        let nodes = vec![
            BadSender { done: false },
            BadSender { done: false },
            BadSender { done: false },
        ];
        let mut network = Network::new(graph, CommModel::PointToPoint, NodeSet::new(), nodes);
        let report = network.run_under(&Regime::Synchronous, &mut HonestAdversary, 5);
        // Node 0's unicast to the non-neighbor 2 is dropped; node 1 and 2 also
        // attempted the same unicast (node 1 IS adjacent to 2, so one delivery).
        assert_eq!(report.trace.total_deliveries(), 1);
    }
}
