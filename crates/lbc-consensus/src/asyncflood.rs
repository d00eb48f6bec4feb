//! Asynchronous exact consensus under the local broadcast model.
//!
//! The synchronous algorithms of the source paper are round machines: their
//! phase boundaries *are* the lockstep assumption. This module mechanizes
//! the asynchronous variant of the local-broadcast line (undirected graphs,
//! cf. arXiv:1909.02865) as an **event-driven** protocol over the same
//! flood fabric:
//!
//! 1. Every node floods its input with the path-annotated rules (i)–(iv) of
//!    [`crate::flooding`]. The rules are round-free — each delivery is
//!    processed when the scheduler releases it, and forwards go out
//!    immediately.
//! 2. A node **reliably receives** `(u, b)` when `u` is itself (its input),
//!    a neighbor whose initiation it overheard directly, or a remote origin
//!    whose value `b` arrived along `f + 1` internally-disjoint `u→v`
//!    paths.
//! 3. Once the flood has provably quiesced, the node decides the majority
//!    of its reliably received values, 0 on a tie. It falls back to its own
//!    input only when it reliably received nothing. Breaking ties by the
//!    own input would split correct nodes, which share one reliable set
//!    when `κ ≥ 2f + 1`.
//!
//! # The decision horizon
//!
//! True unbounded asynchrony rules out deterministic termination (FLP), so
//! the simulator's asynchronous regime is *eventually fair*: every
//! transmission is delivered within the regime's fairness bound `D` of
//! being sent ([`lbc_model::AsyncRegime::delay`]), in per-edge FIFO order.
//! The node reads `D` from [`NodeContext::regime`] and places its deadlines
//! against it: all genuine initiations have arrived after `D` steps (absent
//! neighbors are then substituted with the default `(1, ⊥)`, consistently
//! at every neighbor — initiations are sent at step 0, so the bound applies
//! uniformly), and every relay of a length-`≤ n` path has been processed by
//! step `n · D`. Decisions happen at step `(n + 1) · D`.
//!
//! Under **partial synchrony** fairness only holds from the Global
//! Stabilization Time on: the adversary may withhold pre-GST transmissions
//! entirely (they burst-arrive at `gst`). The node therefore re-derives
//! both deadlines from `gst + D` — defaults at `gst + (D − 1)`, decisions
//! at `gst + (n + 1) · D` — instead of assuming fairness from step 0,
//! reading `gst` from [`lbc_model::Regime::stabilization_time`] (which is 0
//! for the other regimes, leaving their horizons untouched).
//!
//! # Why `2f + 1`-connectivity
//!
//! See [`crate::conditions::asynchronous_feasible`]. With `κ ≥ 2f + 1`
//! every correct node reliably receives the same effective value for every
//! origin — the accepted `(sender, path) → value` map of a completed flood
//! is schedule-independent (rule (ii) plus per-edge FIFO pins each key's
//! first copy), so the decision is the **same under every scheduler**; the
//! `flood_equivalence` tests assert exactly that. Below the threshold two
//! correct nodes can end up with different reliable sets (a tampered copy
//! blocks one of the only two disjoint paths) and their majorities can
//! split — the violation the async boundary campaign reproduces on cycles.

use lbc_model::{NodeId, PathId, Round, Value};
use lbc_sim::{Inbox, NodeContext, Outgoing, Protocol};

use crate::flooding::LedgerFlooder;
use crate::messages::FloodMsg;

/// A node running the asynchronous local-broadcast consensus algorithm.
///
/// Designed for the asynchronous regime but regime-generic: under
/// [`lbc_model::Regime::Synchronous`] the fairness bound is 1 and the node
/// behaves as a (slightly slow) one-shot flood-and-decide protocol, which is
/// what the cross-regime equivalence tests compare schedulers against.
///
/// # Example
///
/// ```
/// use lbc_consensus::{conditions, runner, AlgorithmKind};
/// use lbc_graph::generators;
/// use lbc_model::{AsyncRegime, InputAssignment, NodeSet, Regime, SchedulerKind};
/// use lbc_sim::HonestAdversary;
///
/// let graph = generators::circulant(9, &[1, 2]); // 4-connected: f = 1 works
/// assert!(conditions::asynchronous_feasible(&graph, 1));
/// let inputs = InputAssignment::from_bits(9, 0b101100110);
/// let regime = Regime::Asynchronous(AsyncRegime {
///     scheduler: SchedulerKind::EdgeLag,
///     delay: 3,
///     seed: 7,
/// });
/// let (outcome, _) = runner::run_kind_under(
///     AlgorithmKind::AsyncFlood,
///     &regime,
///     &graph,
///     1,
///     &inputs,
///     &NodeSet::new(),
///     &mut HonestAdversary,
/// );
/// assert!(outcome.verdict().is_correct());
/// ```
#[derive(Debug, Clone)]
pub struct AsyncFloodNode {
    input: Value,
    decided: Option<Value>,
    /// Number of `on_round` invocations so far (the node's local clock —
    /// under both regimes every node is stepped every scheduler step, so
    /// local steps equal global steps and deadlines derived from the
    /// fairness bound are consistent across nodes).
    steps: usize,
    flooder: Option<LedgerFlooder>,
    /// The `(origin, value)` pairs reliably received, computed at decision
    /// time (diagnostics; see [`AsyncFloodNode::reliable_inputs`]).
    reliable_inputs: Vec<(NodeId, Value)>,
}

impl AsyncFloodNode {
    /// Creates an asynchronous consensus node with the given binary input.
    #[must_use]
    pub fn new(input: Value) -> Self {
        AsyncFloodNode {
            input,
            decided: None,
            steps: 0,
            flooder: None,
            reliable_inputs: Vec::new(),
        }
    }

    /// The node's input value.
    #[must_use]
    pub fn input(&self) -> Value {
        self.input
    }

    /// The `(origin, value)` pairs this node reliably received, in node
    /// order — populated when the node decides.
    #[must_use]
    pub fn reliable_inputs(&self) -> &[(NodeId, Value)] {
        &self.reliable_inputs
    }

    /// The step at which nodes substitute defaults for neighbors whose
    /// initiation never arrived: all genuine initiations (sent at step 0)
    /// have landed within the fairness bound `delay`.
    #[must_use]
    pub fn default_step(delay: u64) -> usize {
        delay.saturating_sub(1) as usize
    }

    /// The local step at which the node decides: every relay of a simple
    /// path (length ≤ `n`) has been delivered and processed by `n · delay`
    /// steps, so `(n + 1) · delay` leaves one full fairness window of
    /// margin.
    #[must_use]
    pub fn decision_step(n: usize, delay: u64) -> usize {
        (n.max(1) + 1) * delay as usize
    }

    /// An upper bound on the steps the protocol needs under a regime with
    /// fairness bound `delay` (decision step plus shutdown margin).
    #[must_use]
    pub fn step_count(n: usize, delay: u64) -> usize {
        Self::decision_step(n, delay) + 2
    }

    /// The regime-aware step bound: [`AsyncFloodNode::step_count`] shifted
    /// by the regime's stabilization time. Before GST the adversary may
    /// withhold deliveries entirely, so no deadline placed against the
    /// fairness bound can be trusted until `gst` has passed — the node's
    /// horizons degrade gracefully by re-deriving from `gst + D` instead of
    /// assuming fairness from step 0.
    #[must_use]
    pub fn step_count_under(n: usize, regime: &lbc_model::Regime) -> usize {
        regime.stabilization_time() as usize + Self::step_count(n, regime.delay_bound())
    }

    /// Definition C.1, regime-free: whether this node reliably received
    /// `value` from `origin` — directly for itself and its neighbors, along
    /// `f + 1` internally-disjoint paths otherwise.
    fn reliably_received(&self, ctx: &NodeContext<'_>, origin: NodeId, value: Value) -> bool {
        let Some(flood) = &self.flooder else {
            return false;
        };
        if origin == ctx.id {
            return flood.own_value() == Some(value);
        }
        if ctx.graph.has_edge(ctx.id, origin) {
            let relay = ctx.arena.borrow().find_child(PathId::EMPTY, origin);
            return relay.is_some_and(|relay| flood.value_along_relay(relay) == Some(value));
        }
        flood.received_along_disjoint_paths(origin, value, ctx.f + 1)
    }

    /// Runs the decision rule: majority of the reliably received values
    /// ([`Value::majority`]: 0 on a tie), falling back to the node's own
    /// input only when it reliably received nothing.
    fn decide(&mut self, ctx: &NodeContext<'_>) {
        let mut reliable = Vec::new();
        for origin in ctx.graph.nodes() {
            for value in [Value::Zero, Value::One] {
                if self.reliably_received(ctx, origin, value) {
                    reliable.push((origin, value));
                }
            }
        }
        let decision =
            Value::majority(reliable.iter().map(|(_, value)| *value)).unwrap_or(self.input);
        self.reliable_inputs = reliable;
        self.decided = Some(decision);
    }
}

impl Protocol for AsyncFloodNode {
    type Message = FloodMsg;

    fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<FloodMsg>> {
        let (flooder, out) =
            LedgerFlooder::start(ctx.arena.clone(), ctx.ledger.clone(), ctx.id, self.input);
        self.flooder = Some(flooder);
        out
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        _round: Round,
        inbox: Inbox<'_, FloodMsg>,
    ) -> Vec<Outgoing<FloodMsg>> {
        if self.decided.is_some() {
            return Vec::new();
        }
        let delay = ctx.regime.delay_bound();
        // Under partial synchrony fairness only holds from `gst` on: held
        // initiations burst-arrive exactly at `gst`, so both deadlines shift
        // by it. For the synchronous and asynchronous regimes `gst` is 0 and
        // the horizons are unchanged.
        let gst = ctx.regime.stabilization_time() as usize;
        let step = self.steps;
        self.steps += 1;

        let out = match self.flooder.as_mut() {
            Some(flood) => {
                flood.on_round(ctx.graph, step == gst + Self::default_step(delay), inbox)
            }
            None => Vec::new(),
        };

        if step >= gst + Self::decision_step(ctx.n(), delay) {
            self.decide(ctx);
        }
        out
    }

    fn output(&self) -> Option<Value> {
        self.decided
    }

    fn decision_evidence(&self) -> Vec<(NodeId, Value)> {
        self.reliable_inputs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_arithmetic() {
        // Sync-equivalent regime (delay 1): defaults at step 0, decision
        // right after the flood's n steps.
        assert_eq!(AsyncFloodNode::default_step(1), 0);
        assert_eq!(AsyncFloodNode::decision_step(5, 1), 6);
        // Fairness bound 3 stretches both deadlines.
        assert_eq!(AsyncFloodNode::default_step(3), 2);
        assert_eq!(AsyncFloodNode::decision_step(5, 3), 18);
        assert!(AsyncFloodNode::step_count(5, 3) > AsyncFloodNode::decision_step(5, 3));
        // The regime-aware bound shifts by the stabilization time — and only
        // by it: sync/async regimes keep their pre-GST horizons.
        use lbc_model::{AdversarialSchedule, AsyncRegime, Regime, SchedulerKind};
        let post = AsyncRegime {
            scheduler: SchedulerKind::Fifo,
            delay: 2,
            seed: 0,
        };
        assert_eq!(
            AsyncFloodNode::step_count_under(5, &Regime::Synchronous),
            AsyncFloodNode::step_count(5, 1)
        );
        assert_eq!(
            AsyncFloodNode::step_count_under(5, &Regime::Asynchronous(post)),
            AsyncFloodNode::step_count(5, 2)
        );
        assert_eq!(
            AsyncFloodNode::step_count_under(
                5,
                &Regime::PartialSync {
                    gst: 10,
                    pre: AdversarialSchedule::empty(),
                    post,
                }
            ),
            10 + AsyncFloodNode::step_count(5, 2)
        );
    }

    #[test]
    fn a_tie_decides_zero_not_the_own_input() {
        // C10(1,2), no fault, five 0s and five 1s: every node reliably
        // receives all ten inputs, so the majority is a tie and every node
        // decides 0, the five nodes whose input is 1 included.
        use lbc_graph::generators;
        use lbc_model::{AsyncRegime, InputAssignment, NodeSet, Regime, SchedulerKind};
        use lbc_sim::HonestAdversary;

        let graph = generators::circulant(10, &[1, 2]);
        let inputs = InputAssignment::from_bits(10, 0b10_1010_1010);
        let edge_lag = Regime::Asynchronous(AsyncRegime {
            scheduler: SchedulerKind::EdgeLag,
            delay: 3,
            seed: 5,
        });
        for regime in [Regime::Synchronous, edge_lag] {
            let (outcome, _) = crate::runner::run_kind_under(
                crate::AlgorithmKind::AsyncFlood,
                &regime,
                &graph,
                1,
                &inputs,
                &NodeSet::new(),
                &mut HonestAdversary,
            );
            for (node, input) in inputs.iter() {
                assert_eq!(
                    outcome.output_of(node),
                    Some(Value::Zero),
                    "{node} (input {input}) under {regime}"
                );
            }
        }
    }

    #[test]
    fn construction_defaults() {
        let node = AsyncFloodNode::new(Value::One);
        assert_eq!(node.input(), Value::One);
        assert_eq!(node.output(), None);
        assert!(node.reliable_inputs().is_empty());
    }
}
