//! Point-to-point baseline: Byzantine consensus under the classical model
//! (Dolev 1982 conditions: `n ≥ 3f + 1` and `2f + 1`-connectivity).
//!
//! The paper compares its local-broadcast requirements against this model,
//! so the workspace ships an executable baseline:
//!
//! * **Reliable pairwise dissemination** — each communication step of the
//!   agreement protocol is realized by path-annotated relay flooding; a
//!   receiver accepts a sender's step value only if an identical copy arrived
//!   along `f + 1` internally-disjoint paths (Dolev-style relay: with
//!   `2f + 1` disjoint paths and at most `f` faulty internal nodes, an honest
//!   sender's value always qualifies and a forged value never does).
//! * **King agreement** — the Berman–Garay "king" algorithm (`f + 1` phases
//!   of three steps: vote, propose, king tie-break), correct for `n > 3f`.
//!   A faulty *sender* may still equivocate — that is precisely what the
//!   point-to-point model permits — and the king algorithm tolerates it.
//!
//! Round complexity: `3 (f + 1)` communication steps, each emulated by `n`
//! relay rounds, i.e. `3 (f + 1) n` synchronous rounds.

use std::collections::BTreeMap;

use lbc_model::{NodeId, PathId, Round, Value};
use lbc_sim::{ByzantineMessage, Inbox, MessageView, NodeContext, Outgoing, Protocol};

use crate::flooding::{LedgerFlooder, TAG_VALUE};
use crate::messages::FloodMsg;

/// What kind of value a communication step carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StepKind {
    /// Phase round 1: every node broadcasts its current value.
    Vote,
    /// Phase round 2: nodes that saw a value `≥ n − f` times propose it.
    Propose,
    /// Phase round 3: the phase's king broadcasts its current value.
    King,
}

/// A message of the point-to-point baseline: a step identifier plus a
/// path-annotated relay payload.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct P2pMessage {
    /// Global index of the communication step this flood belongs to.
    pub step: usize,
    /// The relayed payload (value + relay path).
    pub inner: FloodMsg,
}

impl ByzantineMessage for P2pMessage {
    fn tampered(&self) -> Self {
        P2pMessage {
            step: self.step,
            inner: self.inner.tampered(),
        }
    }
}

impl MessageView for P2pMessage {
    fn meta(&self, arena: &lbc_model::SharedPathArena) -> lbc_sim::MsgMeta {
        lbc_sim::MsgMeta {
            kind: "p2p",
            ..self.inner.meta(arena)
        }
    }
}

/// A node running the **point-to-point baseline**: king agreement over
/// Dolev-style reliable relay.
///
/// Requires `n ≥ 3f + 1` and vertex connectivity `≥ 2f + 1` (checked by
/// [`crate::conditions::point_to_point_feasible`]); with fewer nodes or less
/// connectivity the algorithm may fail, which is exactly the comparison the
/// experiments demonstrate.
///
/// # Example
///
/// ```
/// use lbc_consensus::{runner, AlgorithmKind};
/// use lbc_graph::generators;
/// use lbc_model::{InputAssignment, NodeSet, Regime};
/// use lbc_sim::HonestAdversary;
///
/// let graph = generators::complete(4); // n = 3f + 1 for f = 1
/// let inputs = InputAssignment::from_bits(4, 0b0110);
/// let (outcome, _) = runner::run_kind_under(
///     AlgorithmKind::P2pBaseline,
///     &Regime::Synchronous,
///     &graph,
///     1,
///     &inputs,
///     &NodeSet::new(),
///     &mut HonestAdversary,
/// );
/// assert!(outcome.verdict().is_correct());
/// ```
#[derive(Debug, Clone)]
pub struct P2pBaselineNode {
    value: Value,
    decided: Option<Value>,
    round_counter: usize,
    step: usize,
    flooder: Option<LedgerFlooder>,
    /// Values accepted in the most recent vote step, per origin.
    last_votes: BTreeMap<NodeId, Value>,
    /// Values accepted in the most recent propose step, per origin.
    last_proposals: BTreeMap<NodeId, Value>,
}

impl P2pBaselineNode {
    /// Creates a baseline node with the given binary input.
    #[must_use]
    pub fn new(input: Value) -> Self {
        P2pBaselineNode {
            value: input,
            decided: None,
            round_counter: 0,
            step: 0,
            flooder: None,
            last_votes: BTreeMap::new(),
            last_proposals: BTreeMap::new(),
        }
    }

    /// The node's current working value.
    #[must_use]
    pub fn current_value(&self) -> Value {
        self.value
    }

    /// Number of communication steps the baseline performs: three per phase,
    /// `f + 1` phases.
    #[must_use]
    pub fn step_count(f: usize) -> usize {
        3 * (f + 1)
    }

    /// Total synchronous rounds: each step is emulated by `n` relay rounds.
    #[must_use]
    pub fn round_count(n: usize, f: usize) -> usize {
        Self::step_count(f) * n.max(1)
    }

    fn kind_of_step(step: usize) -> StepKind {
        match step % 3 {
            0 => StepKind::Vote,
            1 => StepKind::Propose,
            _ => StepKind::King,
        }
    }

    fn phase_of_step(step: usize) -> usize {
        step / 3
    }

    /// The value this node floods in the given step, if any.
    fn step_initiation(&self, ctx: &NodeContext<'_>, step: usize) -> Option<Value> {
        match Self::kind_of_step(step) {
            StepKind::Vote => Some(self.value),
            StepKind::Propose => {
                let n = ctx.n();
                let f = ctx.f;
                for candidate in [Value::Zero, Value::One] {
                    let count = self
                        .last_votes
                        .values()
                        .filter(|v| **v == candidate)
                        .count();
                    if count >= n.saturating_sub(f) {
                        return Some(candidate);
                    }
                }
                None
            }
            StepKind::King => {
                let king = NodeId::new(Self::phase_of_step(step) % ctx.n());
                (ctx.id == king).then_some(self.value)
            }
        }
    }

    /// Definition-C.1-style acceptance for the just-finished step: the values
    /// accepted per origin (own value, direct neighbor transmission, or an
    /// identical copy along `f + 1` internally-disjoint paths).
    fn accepted_values(&self, ctx: &NodeContext<'_>) -> BTreeMap<NodeId, Value> {
        let mut accepted = BTreeMap::new();
        let Some(flooder) = &self.flooder else {
            return accepted;
        };
        for origin in ctx.graph.nodes() {
            if origin == ctx.id {
                if let Some(v) = flooder.own_value() {
                    accepted.insert(origin, v);
                }
                continue;
            }
            // A neighbor's transmission is heard directly: the full path
            // origin-me, whose relay is `[origin]`.
            let direct_relay = if ctx.graph.has_edge(ctx.id, origin) {
                ctx.arena.borrow().find_child(PathId::EMPTY, origin)
            } else {
                None
            };
            for value in [Value::Zero, Value::One] {
                let direct = direct_relay
                    .is_some_and(|relay| flooder.value_along_relay(relay) == Some(value));
                if direct || flooder.received_along_disjoint_paths(origin, value, ctx.f + 1) {
                    accepted.insert(origin, value);
                    break;
                }
            }
        }
        accepted
    }

    /// State update at the end of a step, per the king algorithm.
    fn finish_step(&mut self, ctx: &NodeContext<'_>, step: usize) {
        let accepted = self.accepted_values(ctx);
        match Self::kind_of_step(step) {
            StepKind::Vote => {
                self.last_votes = accepted;
            }
            StepKind::Propose => {
                self.last_proposals = accepted;
                let f = ctx.f;
                for candidate in [Value::Zero, Value::One] {
                    let count = self
                        .last_proposals
                        .values()
                        .filter(|v| **v == candidate)
                        .count();
                    if count > f {
                        self.value = candidate;
                        break;
                    }
                }
            }
            StepKind::King => {
                let n = ctx.n();
                let f = ctx.f;
                let king = NodeId::new(Self::phase_of_step(step) % n);
                let proposals_received = self.last_proposals.len();
                if proposals_received < n.saturating_sub(f) {
                    // Too few proposals: defer to the king (default when the
                    // king's value did not arrive).
                    self.value = accepted.get(&king).copied().unwrap_or(Value::Zero);
                }
            }
        }
    }
}

impl Protocol for P2pBaselineNode {
    type Message = P2pMessage;

    fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<P2pMessage>> {
        self.begin_step(ctx, 0)
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        _round: Round,
        inbox: Inbox<'_, P2pMessage>,
    ) -> Vec<Outgoing<P2pMessage>> {
        if self.decided.is_some() {
            return Vec::new();
        }
        let n = ctx.n().max(1);
        let relative = self.round_counter % n;
        self.round_counter += 1;

        // Relay the current step's flood, each delivery keeping its slot.
        let current_step = self.step;
        let mut out = Vec::new();
        if let Some(flooder) = self.flooder.as_mut() {
            let step_deliveries = inbox
                .iter_indexed()
                .filter(|(_, d)| d.message.step == current_step)
                .map(|(slot, d)| (slot, d.from, &d.message.inner));
            // No default substitution: silence is legitimate in propose/king
            // steps and handled by the counting rules in vote steps.
            let forwards = flooder.on_round_slots(ctx.graph, false, step_deliveries);
            out.extend(forwards.into_iter().map(|o| wrap(o, current_step)));
        }

        if relative + 1 == n {
            // Step boundary: apply the king-algorithm update and start the
            // next step (or decide).
            self.finish_step(ctx, current_step);
            self.step += 1;
            if self.step >= Self::step_count(ctx.f) {
                self.decided = Some(self.value);
            } else {
                out.extend(self.begin_step(ctx, self.step));
            }
        }
        out
    }

    fn output(&self) -> Option<Value> {
        self.decided
    }
}

impl P2pBaselineNode {
    fn begin_step(&mut self, ctx: &NodeContext<'_>, step: usize) -> Vec<Outgoing<P2pMessage>> {
        // One ledger channel per global step: every node derives the same
        // `(tag, step)` name, so the step's flood shares one channel. The
        // point-to-point model lets faulty senders deliver different copies
        // to different receivers — the ledger engine's per-node overrides
        // absorb exactly that, so sharing stays sound (see lbc_model::ledger).
        let epoch = u32::try_from(step).expect("step index fits u32");
        match self.step_initiation(ctx, step) {
            Some(value) => {
                let (flooder, out) = LedgerFlooder::start_on(
                    ctx.arena.clone(),
                    ctx.ledger.clone(),
                    ctx.id,
                    value,
                    TAG_VALUE,
                    epoch,
                );
                self.flooder = Some(flooder);
                out.into_iter().map(|o| wrap(o, step)).collect()
            }
            None => {
                self.flooder = Some(LedgerFlooder::observer_on(
                    ctx.arena.clone(),
                    ctx.ledger.clone(),
                    ctx.id,
                    TAG_VALUE,
                    epoch,
                ));
                Vec::new()
            }
        }
    }
}

fn wrap(outgoing: Outgoing<FloodMsg>, step: usize) -> Outgoing<P2pMessage> {
    match outgoing {
        Outgoing::Broadcast(inner) => Outgoing::Broadcast(P2pMessage { step, inner }),
        Outgoing::Unicast(to, inner) => Outgoing::Unicast(to, P2pMessage { step, inner }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_schedule() {
        assert_eq!(P2pBaselineNode::step_count(1), 6);
        assert_eq!(P2pBaselineNode::round_count(4, 1), 24);
        assert_eq!(P2pBaselineNode::kind_of_step(0), StepKind::Vote);
        assert_eq!(P2pBaselineNode::kind_of_step(1), StepKind::Propose);
        assert_eq!(P2pBaselineNode::kind_of_step(2), StepKind::King);
        assert_eq!(P2pBaselineNode::kind_of_step(3), StepKind::Vote);
        assert_eq!(P2pBaselineNode::phase_of_step(5), 1);
    }

    #[test]
    fn construction_defaults() {
        let node = P2pBaselineNode::new(Value::One);
        assert_eq!(node.current_value(), Value::One);
        assert_eq!(node.output(), None);
    }

    #[test]
    fn p2p_message_tampering_flips_inner_value() {
        let m = P2pMessage {
            step: 2,
            inner: FloodMsg::initiation(Value::Zero),
        };
        let t = m.tampered();
        assert_eq!(t.step, 2);
        assert_eq!(t.inner.value, Value::One);
    }

    #[test]
    fn a_neighbor_heard_only_directly_is_accepted() {
        // K4, f = 1: Definition C.1 asks for f + 1 = 2 disjoint paths. Node
        // 1's vote reaches node 0 on the direct edge only, which is one
        // path; hearing a neighbor directly must still count.
        let graph = lbc_graph::generators::complete(4);
        let arena = lbc_model::SharedPathArena::new();
        let ledger = lbc_model::SharedFloodLedger::new();
        let observer = lbc_sim::ObserverHandle::disabled();
        let ctx = NodeContext {
            id: NodeId::new(0),
            graph: &graph,
            f: 1,
            regime: &lbc_model::Regime::Synchronous,
            step: None,
            arena: &arena,
            ledger: &ledger,
            observer: &observer,
        };
        let mut node = P2pBaselineNode::new(Value::Zero);
        let _ = node.on_start(&ctx);
        let vote = [lbc_sim::Delivery {
            from: NodeId::new(1),
            message: P2pMessage {
                step: 0,
                inner: FloodMsg::initiation(Value::One),
            },
        }];
        let _ = node.on_round(&ctx, Round::ZERO, Inbox::direct(&vote));
        let flooder = node.flooder.as_ref().expect("step 0 is flooding");
        assert!(!flooder.received_along_disjoint_paths(NodeId::new(1), Value::One, 2));
        let accepted = node.accepted_values(&ctx);
        assert_eq!(accepted.get(&NodeId::new(1)), Some(&Value::One));
        // The own value, and nothing from the silent nodes 2 and 3.
        assert_eq!(accepted.len(), 2);
    }

    #[test]
    fn tampered_path_is_preserved() {
        let arena = lbc_model::SharedPathArena::new();
        let path = arena.intern(&lbc_model::Path::singleton(NodeId::new(3)));
        let m = P2pMessage {
            step: 0,
            inner: FloodMsg {
                value: Value::One,
                path,
            },
        };
        assert_eq!(m.tampered().inner.path, m.inner.path);
    }
}
