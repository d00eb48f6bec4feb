//! Algorithm 2: the efficient `O(n)`-round consensus algorithm for
//! `2f`-connected graphs (Theorem 5.6, Appendix C).
//!
//! The algorithm has three phases of `n` synchronous rounds each:
//!
//! 1. **Phase 1** — every node floods its input value (path-annotated
//!    flooding as in Algorithm 1).
//! 2. **Phase 2** — every node floods *reports* of everything it overheard
//!    its neighbors transmit in phase 1. At the end of the phase each node
//!    runs the fault-identification procedure: for every value it reliably
//!    received (Definition C.1) it inspects `2f` node-disjoint paths and
//!    marks, per path, the first node reliably reported to have forwarded the
//!    opposite value. A node that identifies all `f` faults becomes a
//!    **type A** node; the others are **type B** nodes.
//! 3. **Phase 3** — type B nodes decide the majority of the reliably received
//!    input values and flood their decision; type A nodes adopt a decision
//!    received along a path that avoids the (fully known) faulty set, falling
//!    back to the majority of the non-faulty inputs they can read along
//!    fault-free paths.
//!
//! All three phases run on the shared flood fabric: the phase-1 value flood
//! is a [`LedgerFlooder`], the phase-2 report flood records each distinct
//! report broadcast **once per execution** in the shared
//! [`lbc_model::FloodLedger`] (per-node rule-(ii) state is a bitset over
//! shared record indices), and the phase-3 decision flood keys rule (ii) by
//! interned relay ids in a per-node bitset. The fault-identification
//! procedure additionally shares its disjoint-path plans across nodes
//! through the ledger's pair-path memo — they are pure functions of the
//! (common) communication graph, so every node would otherwise recompute
//! the same max-flow results.

use std::cell::OnceCell;
use std::rc::Rc;

use lbc_graph::{paths, Graph};
use lbc_model::fx::FxHashMap;
use lbc_model::{
    report_key, ChannelId, DenseBits, FloodLedger, NodeId, NodeSet, Path, PathArena, PathId,
    ReportRecord, Round, SharedFloodLedger, SharedPathArena, Value,
};
use lbc_sim::{Inbox, NodeContext, Outgoing, Protocol};

use crate::flooding::{validate_path, LedgerFlooder, TAG_REPORT};
use crate::messages::{Alg2Message, DecisionMsg, ReportMsg};

/// Which role a node ended phase 2 with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Knows the identity of all `f` faulty nodes.
    TypeA,
    /// Does not know all faults; decides by majority of reliably received
    /// inputs.
    TypeB,
}

/// A node running **Algorithm 2** (Theorem 5.6): Byzantine consensus in
/// `O(n)` rounds on `2f`-connected graphs under the local broadcast model.
///
/// # Reproduction note (Appendix C omission gap)
///
/// The fault-identification rule of Appendix C detects *commission*
/// (forwarding a tampered value) but not *omission* (silently failing to
/// relay). On graphs that are exactly `2f`-connected, an omission-only
/// adversary can leave two type B nodes with different reliably-received
/// input sets and no identified faults, and their majority decisions can then
/// disagree — see the `algorithm2_omission_gap_reproduction_finding`
/// integration test for the concrete 5-cycle counterexample, and the
/// README's "Adversary search" section for the search rediscovering the gap
/// on the 13-cycle. Algorithm 1 ([`crate::Algorithm1Node`]) is unaffected and
/// handles arbitrary Byzantine behaviour; use it when omission faults are in
/// scope or the graph is not comfortably above the `2f`-connectivity bound.
///
/// # Example
///
/// ```
/// use lbc_consensus::{conditions, runner, AlgorithmKind};
/// use lbc_graph::generators;
/// use lbc_model::{InputAssignment, NodeSet, Regime};
/// use lbc_sim::HonestAdversary;
///
/// let graph = generators::paper_fig1a(); // 2-connected, so f = 1 works
/// assert!(conditions::efficient_algorithm_applicable(&graph, 1));
/// let inputs = InputAssignment::from_bits(5, 0b10010);
/// let (outcome, trace) = runner::run_kind_under(
///     AlgorithmKind::Algorithm2,
///     &Regime::Synchronous,
///     &graph,
///     1,
///     &inputs,
///     &NodeSet::new(),
///     &mut HonestAdversary,
/// );
/// assert!(outcome.verdict().is_correct());
/// assert!(trace.rounds() <= 3 * 5 + 1);
/// ```
#[derive(Debug, Clone)]
pub struct Algorithm2Node {
    input: Value,
    decided: Option<Value>,
    /// Relative round counter (how many `on_round` calls have happened).
    round_counter: usize,
    /// Phase-1 value flood state.
    value_flood: Option<LedgerFlooder>,
    /// Phase-2 report flood state.
    reports: ReportFlood,
    /// Phase-3 decision flood state.
    decisions: DecisionFlood,
    /// Faulty nodes identified at the end of phase 2.
    identified_faults: NodeSet,
    /// Role determined at the end of phase 2.
    role: Option<Role>,
    /// The `(origin, value)` pairs reliably received in phase 1, computed
    /// once at the end of phase 2 and reused by the type B decision
    /// (previously re-derived, disjoint-path witnesses and all).
    reliable_inputs: Vec<(NodeId, Value)>,
}

impl Algorithm2Node {
    /// Creates an Algorithm 2 node with the given binary input.
    #[must_use]
    pub fn new(input: Value) -> Self {
        Algorithm2Node {
            input,
            decided: None,
            round_counter: 0,
            value_flood: None,
            reports: ReportFlood::default(),
            decisions: DecisionFlood::default(),
            identified_faults: NodeSet::new(),
            role: None,
            reliable_inputs: Vec::new(),
        }
    }

    /// The node's input value.
    #[must_use]
    pub fn input(&self) -> Value {
        self.input
    }

    /// The faulty nodes this node identified during phase 2.
    #[must_use]
    pub fn identified_faults(&self) -> &NodeSet {
        &self.identified_faults
    }

    /// Whether the node ended phase 2 as a type A node (knowing all faults).
    #[must_use]
    pub fn is_type_a(&self) -> bool {
        self.role == Some(Role::TypeA)
    }

    /// Total number of synchronous rounds Algorithm 2 uses on an `n`-node
    /// graph: three flooding phases of `n` rounds each.
    #[must_use]
    pub fn round_count(n: usize) -> usize {
        3 * n.max(1)
    }

    /// Definition C.1: whether this node reliably received input value
    /// `value` from node `origin` in phase 1.
    fn reliably_received_input(&self, ctx: &NodeContext<'_>, origin: NodeId, value: Value) -> bool {
        let Some(flood) = &self.value_flood else {
            return false;
        };
        if origin == ctx.id {
            return flood.own_value() == Some(value);
        }
        if ctx.graph.has_edge(ctx.id, origin) {
            // A neighbor's transmission is heard directly: the two-node full
            // path, whose relay is the unique length-one relay `[origin]` —
            // looked up directly instead of scanning every relay from
            // `origin`.
            let relay = ctx.arena.borrow().find_child(PathId::EMPTY, origin);
            return relay.is_some_and(|relay| flood.value_along_relay(relay) == Some(value));
        }
        flood.received_along_disjoint_paths(origin, value, ctx.f + 1)
    }

    /// The set of `(origin, value)` pairs reliably received in phase 1.
    fn reliably_received_inputs(&self, ctx: &NodeContext<'_>) -> Vec<(NodeId, Value)> {
        let mut received = Vec::new();
        for origin in ctx.graph.nodes() {
            for value in [Value::Zero, Value::One] {
                if self.reliably_received_input(ctx, origin, value) {
                    received.push((origin, value));
                }
            }
        }
        received
    }

    /// Whether this node reliably learned that `observed` transmitted the
    /// exact phase-1 message `(value, observed_path)` — via direct
    /// overhearing when `observed` is a neighbor, or via the phase-2 report
    /// flood otherwise (Definition C.1 applied to `observed → me` paths).
    fn reliably_received_report(
        &self,
        ctx: &NodeContext<'_>,
        observed: NodeId,
        value: Value,
        observed_path: PathId,
    ) -> bool {
        if observed == ctx.id {
            // A node knows its own transmissions: it transmitted
            // `(value, observed_path)` iff it received `value` along the
            // corresponding full path ending at itself — whose relay id is
            // exactly `observed_path`.
            let Some(flood) = &self.value_flood else {
                return false;
            };
            return flood.value_along_relay(observed_path) == Some(value);
        }
        if ctx.graph.has_edge(ctx.id, observed) {
            // Directly overheard in phase 1: an indexed rule-(ii) lookup.
            return self
                .value_flood
                .as_ref()
                .is_some_and(|flood| flood.overheard_exactly(observed, observed_path, value));
        }
        let internal = self
            .reports
            .internal_sets(ctx, observed, value, observed_path);
        paths::has_disjoint_family(internal, ctx.f + 1)
    }

    /// The `2f` node-disjoint `origin → other` paths inspected by the fault
    /// identification procedure. The family is a pure function of the
    /// (common) communication graph and `f`, so the first node to need it
    /// computes it and every node shares the result through the ledger's
    /// pair-path memo — previously `n` nodes ran the same max-flow
    /// computation each.
    fn inspection_paths(ctx: &NodeContext<'_>, origin: NodeId, other: NodeId) -> Rc<Vec<Path>> {
        if let Some(plan) = ctx.ledger.borrow().pair_paths(origin, other) {
            return plan;
        }
        let plan = paths::disjoint_uv_paths_excluding(
            ctx.graph,
            origin,
            other,
            &NodeSet::new(),
            2 * ctx.f,
        );
        ctx.ledger.borrow_mut().set_pair_paths(origin, other, plan)
    }

    /// The fault identification procedure run at the end of phase 2.
    ///
    /// For every value `b` reliably received from an origin `w`, the node
    /// inspects `2f` node-disjoint paths out of `w` and scans each path from
    /// `w`'s side: an internal node `z` that is reliably reported to have
    /// transmitted `(1−b, prefix)` — where `prefix` is exactly the relay
    /// prefix of the inspected path up to `z` — tampered with `w`'s value on
    /// that path and is marked faulty. The path-exact prefix is what keeps
    /// the rule sound: an honest relay forwarding a value tampered elsewhere
    /// carries a different path annotation and is never blamed.
    fn identify_faults(&mut self, ctx: &NodeContext<'_>) {
        let reliable = self.reliably_received_inputs(ctx);
        // The same `(z, value, prefix)` report query recurs across origins
        // and inspected paths; memoize the disjoint-witness search.
        let mut report_memo: FxHashMap<(NodeId, Value, PathId), bool> = FxHashMap::default();
        let mut faults = NodeSet::new();
        for &(origin, value) in &reliable {
            let opposite = value.flipped();
            for other in ctx.graph.nodes() {
                if other == origin {
                    continue;
                }
                let disjoint = Self::inspection_paths(ctx, origin, other);
                for path in disjoint.iter() {
                    // Scan internal nodes from the origin's side. The
                    // expected transmission of the j-th node on the path
                    // carries the relay prefix up to its predecessor —
                    // interned incrementally, one `extended` per hop.
                    let nodes = path.nodes();
                    let mut prefix = PathId::EMPTY;
                    for j in 1..nodes.len().saturating_sub(1) {
                        prefix = ctx.arena.extended(prefix, nodes[j - 1]);
                        let z = nodes[j];
                        let reliably_reported =
                            *report_memo.entry((z, opposite, prefix)).or_insert_with(|| {
                                self.reliably_received_report(ctx, z, opposite, prefix)
                            });
                        if reliably_reported {
                            faults.insert(z);
                            break;
                        }
                    }
                }
            }
        }
        self.identified_faults = faults;
        self.reliable_inputs = reliable;
        self.role = Some(if self.identified_faults.len() >= ctx.f && ctx.f > 0 {
            Role::TypeA
        } else {
            Role::TypeB
        });
    }

    /// Type B decision: majority of the reliably received input values
    /// (computed once by [`Algorithm2Node::identify_faults`]).
    fn type_b_decision(&self) -> Value {
        let values = self.reliable_inputs.iter().map(|(_, value)| *value);
        Value::majority(values).unwrap_or(self.input)
    }

    /// Type A decision at the end of phase 3.
    fn type_a_decision(&self, ctx: &NodeContext<'_>) -> Value {
        // Prefer a decision value received along a path that avoids every
        // identified fault and originates at a non-faulty node.
        {
            let arena = ctx.arena.borrow();
            for &(origin, value, full_path) in &self.decisions.received {
                if self.identified_faults.contains(origin) {
                    continue;
                }
                if arena.excludes(full_path, &self.identified_faults) {
                    return value;
                }
            }
        }
        // Fall back to the majority of the non-faulty inputs read along
        // fault-free paths of phase 1.
        let Some(flood) = &self.value_flood else {
            return self.input;
        };
        let mut inputs = Vec::new();
        for u in ctx.graph.nodes() {
            if self.identified_faults.contains(u) {
                continue;
            }
            if u == ctx.id {
                inputs.push(self.input);
                continue;
            }
            let fault_free_value = flood
                .received_from(u)
                .into_iter()
                .find(|(path, _)| path.excludes(&self.identified_faults))
                .map(|(_, value)| value);
            if let Some(value) = fault_free_value {
                inputs.push(value);
            }
        }
        Value::majority(inputs).unwrap_or(self.input)
    }

    /// Builds the phase-2 report initiations: one report per distinct
    /// phase-1 transmission overheard from a neighbor.
    fn build_reports(&self, ctx: &NodeContext<'_>) -> Vec<Outgoing<Alg2Message>> {
        let Some(flood) = &self.value_flood else {
            return Vec::new();
        };
        // `overheard_ids` is already unique per (sender, path) and sorted,
        // matching the order the pre-interning engine emitted reports in.
        flood
            .overheard_ids()
            .into_iter()
            .map(|(observed, observed_path, value)| {
                Outgoing::Broadcast(Alg2Message::Report(ReportMsg {
                    observed,
                    value,
                    observed_path,
                    path: ctx.arena.extended(PathId::EMPTY, observed),
                }))
            })
            .collect()
    }
}

impl Protocol for Algorithm2Node {
    type Message = Alg2Message;

    fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<Alg2Message>> {
        let (flooder, out) =
            LedgerFlooder::start(ctx.arena.clone(), ctx.ledger.clone(), ctx.id, self.input);
        self.value_flood = Some(flooder);
        out.into_iter()
            .map(|o| map_outgoing(o, Alg2Message::Input))
            .collect()
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        _round: Round,
        inbox: Inbox<'_, Alg2Message>,
    ) -> Vec<Outgoing<Alg2Message>> {
        let n = ctx.n().max(1);
        let relative = self.round_counter;
        self.round_counter += 1;

        let mut out: Vec<Outgoing<Alg2Message>> = Vec::new();

        // Each phase window consumes its own message variant straight off
        // the zero-clone inbox view; other variants delivered inside the
        // window (e.g. late phase-1 forwards arriving in a phase-2 round)
        // are dropped, exactly as the previous split-then-ignore did.
        if relative < n {
            // Phase 1 relaying (rounds 0..n), each input keeping its slot.
            if let Some(flood) = self.value_flood.as_mut() {
                let inputs = inbox
                    .iter_indexed()
                    .filter_map(|(slot, d)| match &d.message {
                        Alg2Message::Input(m) => Some((slot, d.from, m)),
                        _ => None,
                    });
                let forwards = flood.on_round_slots(ctx.graph, relative == 0, inputs);
                out.extend(
                    forwards
                        .into_iter()
                        .map(|o| map_outgoing(o, Alg2Message::Input)),
                );
            }
        } else if relative < 2 * n {
            // Phase 2 relaying (rounds n..2n).
            self.reports.on_round(ctx, inbox, &mut out);
        } else {
            // Phase 3 relaying (rounds 2n..3n).
            let decision_msgs: Vec<(NodeId, DecisionMsg)> = inbox
                .iter()
                .filter_map(|delivery| match &delivery.message {
                    Alg2Message::Decision(m) => Some((delivery.from, *m)),
                    _ => None,
                })
                .collect();
            let forwards = self.decisions.on_round(ctx, &decision_msgs);
            out.extend(forwards.into_iter().map(Outgoing::Broadcast));
        }

        // Phase transitions.
        if relative + 1 == n {
            // End of phase 1: emit the report initiations.
            out.extend(self.build_reports(ctx));
        }
        if relative + 1 == 2 * n {
            // End of phase 2: identify faults and, for type B nodes, decide
            // and start flooding the decision.
            self.identify_faults(ctx);
            if self.role == Some(Role::TypeB) {
                let decision = self.type_b_decision();
                self.decided = Some(decision);
                out.push(Outgoing::Broadcast(Alg2Message::Decision(DecisionMsg {
                    value: decision,
                    path: PathId::EMPTY,
                })));
            }
        }
        if relative + 1 == 3 * n && self.decided.is_none() {
            // End of phase 3: type A nodes decide.
            self.decided = Some(self.type_a_decision(ctx));
        }

        out
    }

    fn output(&self) -> Option<Value> {
        self.decided
    }
}

fn map_outgoing<M, N>(outgoing: Outgoing<M>, wrap: impl Fn(M) -> N) -> Outgoing<N> {
    match outgoing {
        Outgoing::Broadcast(m) => Outgoing::Broadcast(wrap(m)),
        Outgoing::Unicast(to, m) => Outgoing::Unicast(to, wrap(m)),
    }
}

/// Flooding state for phase-2 reports, on the shared flood fabric.
///
/// A report's relay path starts at the *observed* node, so that
/// disjoint-path checks at the receiver range over `observed → receiver`
/// paths. Rule (ii) is applied per `(sender, relay path, observed, observed
/// transmission path)` key — but the key's validity, relay id and first
/// value are receiver-independent, so they live **once per execution** in
/// the ledger's keyed records: the first receiver anywhere validates and
/// interns, and the ledger's slot table hands the lookup to every later
/// receiver of the same transmission, whose processing is then one verified
/// entry read plus bit operations. Per-node state is a [`DenseBits`] bitset
/// over record indices plus the accepted-record list.
#[derive(Debug, Clone, Default)]
struct ReportFlood {
    /// The report channel, opened on first use.
    channel: Option<ChannelId>,
    /// Rule-(ii) membership over shared record indices.
    seen: DenseBits,
    /// Accepted record indices, in arrival order.
    accepted: Vec<u32>,
    /// Per-node first values that diverge from the shared record (empty
    /// under local broadcast; see the ledger module docs).
    overrides: FxHashMap<u32, Value>,
    /// Accepted record indices by stream `(observed, value,
    /// observed_path)`, built on the first stream query (queries run behind
    /// `&self` during fault identification). Most executions query few or
    /// no streams (neighbors are checked by direct overhearing), and eagerly
    /// indexing the accepted records measurably dominated identification.
    streams: OnceCell<FxHashMap<(NodeId, Value, PathId), Vec<u32>>>,
    /// Scratch buffer for [`validate_path`] (avoids per-message allocation).
    validate_scratch: Vec<PathId>,
}

impl ReportFlood {
    fn channel(&mut self, ledger: &SharedFloodLedger) -> ChannelId {
        *self
            .channel
            .get_or_insert_with(|| ledger.open(TAG_REPORT, 0))
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: Inbox<'_, Alg2Message>,
        out: &mut Vec<Outgoing<Alg2Message>>,
    ) {
        if inbox.is_empty() {
            return;
        }
        let channel = self.channel(ctx.ledger);
        // Borrow the shared structures once for the whole round, not once
        // per message; consume report messages straight off the zero-clone
        // inbox view.
        let mut arena = ctx.arena.borrow_mut();
        let mut ledger = ctx.ledger.borrow_mut();
        for (slot, delivery) in inbox.iter_indexed() {
            let Alg2Message::Report(msg) = &delivery.message else {
                continue;
            };
            if let Some(forward) = self.process_inner(
                &mut arena,
                &mut ledger,
                channel,
                ctx.graph,
                ctx.id,
                slot,
                delivery.from,
                msg,
            ) {
                out.push(Outgoing::Broadcast(Alg2Message::Report(forward)));
            }
        }
    }

    /// Test-facing single-message entry point. Every message goes through
    /// slot 0, so a message with another key than the last one misses.
    #[cfg(test)]
    fn process(
        &mut self,
        arena: &SharedPathArena,
        ledger: &SharedFloodLedger,
        graph: &Graph,
        me: NodeId,
        from: NodeId,
        msg: &ReportMsg,
    ) -> Option<ReportMsg> {
        let channel = self.channel(ledger);
        let mut arena = arena.borrow_mut();
        let mut ledger = ledger.borrow_mut();
        self.process_inner(&mut arena, &mut ledger, channel, graph, me, 0, from, msg)
    }

    #[allow(clippy::too_many_arguments)]
    fn process_inner(
        &mut self,
        arena: &mut PathArena,
        ledger: &mut FloodLedger,
        channel: ChannelId,
        graph: &Graph,
        me: NodeId,
        slot: u32,
        from: NodeId,
        msg: &ReportMsg,
    ) -> Option<ReportMsg> {
        let key = report_key(from, msg.path, msg.observed, msg.observed_path);
        // Broadcast-once lookup: the first receiver of a slot resolves the
        // key through the map; everyone else reads the slot table (one
        // verified entry read). A missing record means no receiver processed
        // this broadcast yet — validate once and publish.
        let lookup = match ledger.report_lookup_at_slot(channel, slot, &key) {
            Some(found) => found,
            None => {
                let record = Self::validate(arena, &mut self.validate_scratch, graph, from, msg);
                let index = ledger.insert_keyed(channel, key, record);
                ledger.cache_slot(channel, slot, key, index)
            }
        };
        if !lookup.valid {
            return None;
        }
        // Rule (iii) *before* rule (ii): for the report flood the orders
        // are observably equivalent (a rule-(iii)-doomed key never produces
        // a forward or an accepted record, and nothing queries the report
        // flood's rule-(ii) state for such keys), and testing the memoized
        // member word first means the ~3/4 of deliveries whose relay runs
        // through the receiver touch no per-node state at all.
        if lookup.relay_contains(me, || arena.contains(lookup.relay, me)) {
            return None;
        }
        // Rule (ii): one message per key — a bit test on the record index.
        if !self.seen.insert(lookup.index as usize) {
            return None;
        }
        if msg.value != lookup.value {
            self.overrides.insert(lookup.index, msg.value);
        }
        // Rule (iv): index the accepted record and forward.
        self.accepted.push(lookup.index);
        Some(ReportMsg {
            observed: msg.observed,
            value: msg.value,
            observed_path: msg.observed_path,
            path: lookup.relay,
        })
    }

    /// The receiver-independent part of report processing: shape checks,
    /// rule (i), and relay interning. Runs once per distinct broadcast.
    fn validate(
        arena: &mut PathArena,
        scratch: &mut Vec<PathId>,
        graph: &Graph,
        from: NodeId,
        msg: &ReportMsg,
    ) -> ReportRecord {
        let invalid = ReportRecord {
            valid: false,
            value: msg.value,
            relay: PathId::EMPTY,
            relay_members_low: 0,
            observed: msg.observed,
            observed_path: msg.observed_path,
        };
        // The report's relay path must start at the observed node.
        if arena.first(msg.path) != Some(msg.observed) {
            return invalid;
        }
        // Rule (i): the relay path (including the transmitter) must exist in
        // G. Validation reads the arena's shared graph-validity memo — the
        // same per-entry byte the phase-1 value flood populated, so a report
        // about a path that travelled in phase 1 costs one array read. The
        // relay path is `msg.path` itself when the transmitter is already
        // its last node (a report initiation), otherwise `msg.path‑from`.
        let retransmission = arena.last(msg.path) == Some(from);
        if !validate_path(arena, scratch, graph, msg.path) {
            return invalid;
        }
        if !retransmission
            && (!graph.contains_node(from)
                || arena.contains(msg.path, from)
                || arena
                    .last(msg.path)
                    .is_none_or(|last| !graph.has_edge(last, from)))
        {
            return invalid;
        }
        let relay = if retransmission {
            msg.path
        } else {
            arena.extended(msg.path, from)
        };
        ReportRecord {
            valid: true,
            value: msg.value,
            relay,
            relay_members_low: arena
                .members(relay)
                .as_words()
                .first()
                .copied()
                .unwrap_or(0),
            observed: msg.observed,
            observed_path: msg.observed_path,
        }
    }

    /// The internal node sets of the full `observed → me` paths the report
    /// `(observed, value, observed_path)` arrived along, in arrival order:
    /// each accepted relay starts at `observed` and, by rule (iii), avoids
    /// `me`, so its internal nodes are its members minus `observed`. An
    /// execution that never asks (every reliably-received check answered by
    /// direct overhearing) never builds the stream index.
    fn internal_sets(
        &self,
        ctx: &NodeContext<'_>,
        observed: NodeId,
        value: Value,
        observed_path: PathId,
    ) -> Vec<NodeSet> {
        let Some(channel) = self.channel else {
            return Vec::new(); // no report was ever processed
        };
        let ledger = ctx.ledger.borrow();
        let streams = self.streams.get_or_init(|| {
            let mut by_stream: FxHashMap<(NodeId, Value, PathId), Vec<u32>> = FxHashMap::default();
            for &index in &self.accepted {
                let record = ledger.record(channel, index);
                let accepted_value = self.overrides.get(&index).copied().unwrap_or(record.value);
                by_stream
                    .entry((record.observed, accepted_value, record.observed_path))
                    .or_default()
                    .push(index);
            }
            by_stream
        });
        let Some(indices) = streams.get(&(observed, value, observed_path)) else {
            return Vec::new();
        };
        let arena = ctx.arena.borrow();
        indices
            .iter()
            .map(|&index| {
                let mut members = arena.members(ledger.record(channel, index).relay).clone();
                members.remove(observed);
                members
            })
            .collect()
    }
}

/// Flooding state for phase-3 decision messages.
///
/// Rule (ii)'s `(sender, path)` key *is* the interned relay id `Π‑sender`,
/// so the state is a [`DenseBits`] bitset over the shared arena's ids — the
/// arena plays the role of the execution-wide key interner (this used to be
/// a per-node `FxHashSet`).
#[derive(Debug, Clone, Default)]
struct DecisionFlood {
    /// Rule-(ii) membership over interned relay ids.
    seen: DenseBits,
    /// Full origin→me paths and the value they delivered, in arrival order.
    received: Vec<(NodeId, Value, PathId)>,
    /// Scratch buffer for [`validate_path`] (avoids per-message allocation).
    validate_scratch: Vec<PathId>,
}

impl DecisionFlood {
    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[(NodeId, DecisionMsg)],
    ) -> Vec<Alg2Message> {
        let mut out = Vec::new();
        for (from, msg) in inbox {
            if let Some(forward) = self.process(ctx.arena, ctx.graph, ctx.id, *from, msg) {
                out.push(Alg2Message::Decision(forward));
            }
        }
        out
    }

    fn process(
        &mut self,
        arena: &SharedPathArena,
        graph: &Graph,
        me: NodeId,
        from: NodeId,
        msg: &DecisionMsg,
    ) -> Option<DecisionMsg> {
        // Rule (i), checked id-natively against the arena's shared
        // graph-validity memo (decision paths are usually re-walks of
        // phase-1/2 prefixes, so the memo hits).
        {
            let mut borrowed = arena.borrow_mut();
            if !graph.contains_node(from)
                || !validate_path(&mut borrowed, &mut self.validate_scratch, graph, msg.path)
                || borrowed.contains(msg.path, from)
            {
                return None;
            }
            if let Some(last) = borrowed.last(msg.path) {
                if !graph.has_edge(last, from) {
                    return None;
                }
            }
        }
        // Rules (ii) and (iii): the relay id is the key; one bit test.
        let relay_path = arena.extended(msg.path, from);
        if !self.seen.insert(relay_path.index()) {
            return None;
        }
        if arena.contains(relay_path, me) {
            return None;
        }
        // Rule (iv).
        let full = arena.extended(relay_path, me);
        let origin = arena.first(full).expect("non-empty path");
        self.received.push((origin, msg.value, full));
        Some(DecisionMsg {
            value: msg.value,
            path: relay_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbc_graph::generators;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn intern(arena: &SharedPathArena, ids: &[usize]) -> PathId {
        arena.intern(&Path::from_nodes(ids.iter().map(|&i| n(i))))
    }

    fn ctx_at<'a>(
        id: NodeId,
        graph: &'a Graph,
        arena: &'a SharedPathArena,
        ledger: &'a SharedFloodLedger,
    ) -> NodeContext<'a> {
        NodeContext {
            id,
            graph,
            f: 1,
            regime: &lbc_model::Regime::Synchronous,
            step: None,
            arena,
            ledger,
            observer: Box::leak(Box::new(lbc_sim::ObserverHandle::disabled())),
        }
    }

    #[test]
    fn round_count_is_linear() {
        assert_eq!(Algorithm2Node::round_count(5), 15);
        assert_eq!(Algorithm2Node::round_count(9), 27);
    }

    #[test]
    fn construction_defaults() {
        let node = Algorithm2Node::new(Value::One);
        assert_eq!(node.input(), Value::One);
        assert_eq!(node.output(), None);
        assert!(!node.is_type_a());
        assert!(node.identified_faults().is_empty());
    }

    #[test]
    fn report_flood_rejects_malformed_paths() {
        let graph = generators::cycle(5);
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let mut flood = ReportFlood::default();
        // Relay path does not start at the observed node.
        let bad = ReportMsg {
            observed: n(0),
            value: Value::One,
            observed_path: PathId::EMPTY,
            path: intern(&arena, &[1]),
        };
        assert!(flood
            .process(&arena, &ledger, &graph, n(2), n(1), &bad)
            .is_none());
        // Non-adjacent relay claim: relay path [0] transmitted by node 2
        // (0-2 is not an edge of the 5-cycle).
        let not_adjacent = ReportMsg {
            observed: n(0),
            value: Value::One,
            observed_path: PathId::EMPTY,
            path: intern(&arena, &[0]),
        };
        assert!(flood
            .process(&arena, &ledger, &graph, n(3), n(2), &not_adjacent)
            .is_none());
    }

    #[test]
    fn report_flood_records_and_forwards_valid_reports() {
        let graph = generators::cycle(5);
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let mut flood = ReportFlood::default();
        // Node 1 reports on its neighbor 0 relaying node 4's value; we are
        // node 2 receiving the report from node 1.
        let observed_path = intern(&arena, &[4]);
        let report = ReportMsg {
            observed: n(0),
            value: Value::Zero,
            observed_path,
            path: intern(&arena, &[0]),
        };
        let forward = flood
            .process(&arena, &ledger, &graph, n(2), n(1), &report)
            .unwrap();
        assert_eq!(arena.resolve(forward.path).nodes(), &[n(0), n(1)]);
        // Duplicate (same sender, relay path, observed, observed-path) is ignored.
        assert!(flood
            .process(&arena, &ledger, &graph, n(2), n(1), &report)
            .is_none());
        let ctx = ctx_at(n(2), &graph, &arena, &ledger);
        // The full path is 0-1-2: its only internal node is 1.
        assert_eq!(
            flood.internal_sets(&ctx, n(0), Value::Zero, observed_path),
            vec![NodeSet::singleton(n(1))]
        );
        assert!(flood
            .internal_sets(&ctx, n(0), Value::One, observed_path)
            .is_empty());
    }

    #[test]
    fn report_ledger_shares_records_across_receivers() {
        // Two receivers of the same broadcast: the second one's processing
        // hits the shared record; both keep their own accepted indexes.
        let graph = generators::cycle(5);
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let mut at_node2 = ReportFlood::default();
        let mut at_node0 = ReportFlood::default();
        let observed_path = intern(&arena, &[4]);
        let report = ReportMsg {
            observed: n(1),
            value: Value::One,
            observed_path,
            path: intern(&arena, &[1]),
        };
        assert!(at_node2
            .process(&arena, &ledger, &graph, n(2), n(1), &report)
            .is_some());
        assert!(at_node0
            .process(&arena, &ledger, &graph, n(0), n(1), &report)
            .is_some());
        // Both receivers heard node 1 directly: full paths 1-2 and 1-0,
        // with no internal node.
        assert_eq!(
            at_node2.internal_sets(
                &ctx_at(n(2), &graph, &arena, &ledger),
                n(1),
                Value::One,
                observed_path
            ),
            vec![NodeSet::new()]
        );
        assert_eq!(
            at_node0.internal_sets(
                &ctx_at(n(0), &graph, &arena, &ledger),
                n(1),
                Value::One,
                observed_path
            ),
            vec![NodeSet::new()]
        );
    }

    #[test]
    fn decision_flood_tracks_origins() {
        let graph = generators::cycle(5);
        let arena = SharedPathArena::new();
        let mut flood = DecisionFlood::default();
        let msg = DecisionMsg {
            value: Value::One,
            path: PathId::EMPTY,
        };
        let forward = flood.process(&arena, &graph, n(2), n(1), &msg).unwrap();
        assert_eq!(arena.resolve(forward.path).nodes(), &[n(1)]);
        assert_eq!(flood.received.len(), 1);
        assert_eq!(flood.received[0].0, n(1));
        assert_eq!(flood.received[0].1, Value::One);
        // Rule (ii): the same (sender, path) key is ignored on repeat.
        assert!(flood.process(&arena, &graph, n(2), n(1), &msg).is_none());
    }
}
