//! Glue for executing the consensus algorithms inside the simulator and
//! judging the outcome.

use lbc_graph::Graph;
use lbc_model::{CommModel, ConsensusOutcome, InputAssignment, NodeSet, Regime, Value};
use lbc_sim::{Adversary, ChainStats, Network, ObserverHandle, Protocol, Trace};

use crate::algorithm1::Algorithm1Node;
use crate::algorithm2::Algorithm2Node;
use crate::algorithm3::Algorithm3Node;
use crate::asyncflood::AsyncFloodNode;
use crate::messages::{Alg2Message, FloodMsg};
use crate::p2p::{P2pBaselineNode, P2pMessage};

/// Which consensus algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Algorithm 1: exponential-phase exact consensus (Theorem 5.1).
    Algorithm1,
    /// Algorithm 2: `O(n)`-round consensus for `2f`-connected graphs
    /// (Theorem 5.6).
    Algorithm2,
    /// The classical point-to-point baseline (king agreement over
    /// Dolev-style relay), run under [`CommModel::PointToPoint`].
    P2pBaseline,
    /// The asynchronous local-broadcast algorithm
    /// ([`crate::AsyncFloodNode`]): event-driven flood-and-decide for
    /// `(2f + 1)`-connected graphs, the only algorithm that runs under
    /// asynchronous regimes (and the regime-generic one — it also runs
    /// under [`Regime::Synchronous`], where the fairness bound is 1).
    AsyncFlood,
}

impl AlgorithmKind {
    /// A short, stable name ("alg1" / "alg2" / "p2p" / "async"), used by
    /// campaign specs, report rows, and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Algorithm1 => "alg1",
            AlgorithmKind::Algorithm2 => "alg2",
            AlgorithmKind::P2pBaseline => "p2p",
            AlgorithmKind::AsyncFlood => "async",
        }
    }

    /// Whether this algorithm can execute under `regime`. The three
    /// round-machine algorithms require lockstep rounds; the asynchronous
    /// algorithm is regime-generic.
    #[must_use]
    pub fn supports_regime(self, regime: &Regime) -> bool {
        match self {
            AlgorithmKind::AsyncFlood => true,
            _ => regime.is_synchronous(),
        }
    }

    /// Parses the stable name produced by [`AlgorithmKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "alg1" => AlgorithmKind::Algorithm1,
            "alg2" => AlgorithmKind::Algorithm2,
            "p2p" => AlgorithmKind::P2pBaseline,
            "async" => AlgorithmKind::AsyncFlood,
            _ => return None,
        })
    }

    /// Every runnable kind, in stable order.
    #[must_use]
    pub fn all() -> [AlgorithmKind; 4] {
        [
            AlgorithmKind::Algorithm1,
            AlgorithmKind::Algorithm2,
            AlgorithmKind::P2pBaseline,
            AlgorithmKind::AsyncFlood,
        ]
    }
}

/// Safety margin multiplier applied to the theoretical round counts when
/// picking the simulator's round limit.
const ROUND_MARGIN: usize = 2;

/// One algorithm's row in the runner's table: the communication model it
/// runs under, its step budget, and its node constructor.
/// [`run_kind_observed`] and [`run_chain_under`] read their parameters here.
trait Algorithm: Protocol + Sized {
    /// The communication model the algorithm runs under.
    fn model() -> CommModel {
        CommModel::LocalBroadcast
    }

    /// The simulator's step limit for `n` nodes and fault bound `f`.
    fn step_budget(n: usize, f: usize, regime: &Regime) -> usize;

    /// A node starting from `input`.
    fn with_input(input: Value) -> Self;
}

impl Algorithm for Algorithm1Node {
    fn step_budget(n: usize, f: usize, _regime: &Regime) -> usize {
        Algorithm1Node::round_count(n, f) * ROUND_MARGIN + 2
    }

    fn with_input(input: Value) -> Self {
        Algorithm1Node::new(input)
    }
}

impl Algorithm for Algorithm2Node {
    fn step_budget(n: usize, _f: usize, _regime: &Regime) -> usize {
        Algorithm2Node::round_count(n) * ROUND_MARGIN + 2
    }

    fn with_input(input: Value) -> Self {
        Algorithm2Node::new(input)
    }
}

impl Algorithm for P2pBaselineNode {
    fn model() -> CommModel {
        CommModel::PointToPoint
    }

    fn step_budget(n: usize, f: usize, _regime: &Regime) -> usize {
        P2pBaselineNode::round_count(n, f) * ROUND_MARGIN + 2
    }

    fn with_input(input: Value) -> Self {
        P2pBaselineNode::new(input)
    }
}

impl Algorithm for AsyncFloodNode {
    fn step_budget(n: usize, _f: usize, regime: &Regime) -> usize {
        AsyncFloodNode::step_count_under(n, regime)
    }

    fn with_input(input: Value) -> Self {
        AsyncFloodNode::new(input)
    }
}

/// One node per graph node, each starting from its own input.
fn nodes_for<P: Algorithm>(graph: &Graph, inputs: &InputAssignment) -> Vec<P> {
    assert_eq!(
        inputs.len(),
        graph.node_count(),
        "one input per graph node is required"
    );
    graph
        .nodes()
        .map(|v| P::with_input(inputs.get(v)))
        .collect()
}

/// Judges one execution's decided outputs against its inputs.
fn judge(
    graph: &Graph,
    inputs: InputAssignment,
    faulty: &NodeSet,
    outputs: &[Option<Value>],
) -> ConsensusOutcome {
    let mut outcome = ConsensusOutcome::new(inputs, faulty.clone());
    for node in graph.nodes() {
        if let Some(value) = outputs[node.index()] {
            outcome.record_output(node, value);
        }
    }
    outcome
}

/// Runs one execution of algorithm `P` on a fresh network and judges it.
fn run_one<P, A>(
    regime: &Regime,
    graph: &Graph,
    f: usize,
    inputs: &InputAssignment,
    faulty: &NodeSet,
    adversary: &mut A,
    observer: ObserverHandle,
) -> (ConsensusOutcome, Trace)
where
    P: Algorithm,
    A: Adversary<P::Message>,
{
    let nodes = nodes_for::<P>(graph, inputs);
    let mut network = Network::new(graph.clone(), P::model(), faulty.clone(), nodes)
        .with_fault_bound(f)
        .with_observer(observer);
    let max_steps = P::step_budget(graph.node_count(), f, regime);
    let report = network.run_under(regime, adversary, max_steps);
    let outcome = judge(graph, inputs.clone(), faulty, &report.outputs);
    (outcome, report.trace)
}

/// Runs one execution of the algorithm selected by `kind` under `regime`
/// with a caller-constructed (and, for randomized strategies, pre-seeded)
/// adversary, and judges it: the one-shot entry point the CLI, the
/// campaign executor and the search engine dispatch through.
///
/// # Panics
///
/// Panics when `kind` is a synchronous round machine and `regime` is
/// asynchronous (see [`AlgorithmKind::supports_regime`]); campaign spec
/// expansion rejects such cells before they reach the executor.
pub fn run_kind_under<A>(
    kind: AlgorithmKind,
    regime: &Regime,
    graph: &Graph,
    f: usize,
    inputs: &InputAssignment,
    faulty: &NodeSet,
    adversary: &mut A,
) -> (ConsensusOutcome, Trace)
where
    A: Adversary<FloodMsg> + Adversary<Alg2Message> + Adversary<P2pMessage>,
{
    run_kind_observed(
        kind,
        regime,
        graph,
        f,
        inputs,
        faulty,
        adversary,
        ObserverHandle::disabled(),
    )
}

/// Runs any algorithm under an explicit [`Regime`] with a telemetry
/// observer attached to the simulated network — the entry point behind
/// `lbc trace` and per-cell campaign telemetry. With a
/// [`ObserverHandle::disabled`] handle this is exactly
/// [`run_kind_under`].
///
/// # Panics
///
/// Panics when `kind` cannot execute under `regime` (see
/// [`AlgorithmKind::supports_regime`]).
#[allow(clippy::too_many_arguments)]
pub fn run_kind_observed<A>(
    kind: AlgorithmKind,
    regime: &Regime,
    graph: &Graph,
    f: usize,
    inputs: &InputAssignment,
    faulty: &NodeSet,
    adversary: &mut A,
    observer: ObserverHandle,
) -> (ConsensusOutcome, Trace)
where
    A: Adversary<FloodMsg> + Adversary<Alg2Message> + Adversary<P2pMessage>,
{
    assert_supported(kind, regime);
    let run = match kind {
        AlgorithmKind::Algorithm1 => run_one::<Algorithm1Node, A>,
        AlgorithmKind::Algorithm2 => run_one::<Algorithm2Node, A>,
        AlgorithmKind::P2pBaseline => run_one::<P2pBaselineNode, A>,
        AlgorithmKind::AsyncFlood => run_one::<AsyncFloodNode, A>,
    };
    run(regime, graph, f, inputs, faulty, adversary, observer)
}

fn assert_supported(kind: AlgorithmKind, regime: &Regime) {
    assert!(
        kind.supports_regime(regime),
        "{} is a synchronous round machine and cannot run under {regime}",
        kind.name()
    );
}

/// Runs **Algorithm 3** under the hybrid model with the given set of
/// equivocating faulty nodes (`equivocators ⊆ faulty`, `|equivocators| ≤ t`).
///
/// Algorithm 3 has its own entry point because it needs `t` and the
/// equivocator set, which [`AlgorithmKind`] does not carry.
#[allow(clippy::too_many_arguments)]
pub fn run_algorithm3<A>(
    graph: &Graph,
    f: usize,
    t: usize,
    equivocators: &NodeSet,
    inputs: &InputAssignment,
    faulty: &NodeSet,
    adversary: &mut A,
) -> (ConsensusOutcome, Trace)
where
    A: Adversary<FloodMsg>,
{
    assert!(
        equivocators.is_subset(faulty) || equivocators.is_empty(),
        "equivocators must be faulty nodes"
    );
    let n = graph.node_count();
    let nodes: Vec<Algorithm3Node> = graph
        .nodes()
        .map(|v| Algorithm3Node::new(inputs.get(v), t))
        .collect();
    let model = CommModel::Hybrid {
        equivocators: equivocators.clone(),
    };
    let mut network = Network::new(graph.clone(), model, faulty.clone(), nodes).with_fault_bound(f);
    let report = network.run_under(
        &Regime::Synchronous,
        adversary,
        Algorithm3Node::round_count(n, f, t) * ROUND_MARGIN + 2,
    );
    let outcome = judge(graph, inputs.clone(), faulty, &report.outputs);
    (outcome, report.trace)
}

/// Per-instance judged result of a chained repeated-consensus run
/// ([`run_chain_under`]): one [`ConsensusOutcome`] plus the instance's
/// resource footprint, in instance order.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// The judged consensus outcome of this instance.
    pub outcome: ConsensusOutcome,
    /// Whether every non-faulty node terminated within the step budget.
    pub all_non_faulty_terminated: bool,
    /// Steps (lockstep rounds or scheduler steps) this instance consumed.
    pub steps: usize,
    /// Transmissions emitted by this instance, including its drain tail.
    pub transmissions: usize,
    /// Deliveries of this instance's transmissions.
    pub deliveries: usize,
}

/// Runs `instances` consecutive executions of one algorithm over a single
/// long-lived network — the repeated-consensus service core behind
/// `lbc serve`. Instance `k + 1` starts while instance `k`'s flood tail
/// drains; the path arena, disjoint-path plans, and ledger pair memos stay
/// warm across instances, and each instance's ledger channels live in their
/// own epoch session (see [`lbc_sim::Network::run_chain`]).
///
/// `inputs_for` is called once per instance (with the instance index) and
/// must return one input per graph node; each instance is judged against its
/// own assignment. Returns the per-instance results in order plus the
/// chain-wide resource high-water marks.
///
/// # Panics
///
/// Panics when `kind` cannot execute under `regime` (see
/// [`AlgorithmKind::supports_regime`]) or when `inputs_for` returns an
/// assignment of the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn run_chain_under<A, FI>(
    kind: AlgorithmKind,
    regime: &Regime,
    graph: &Graph,
    f: usize,
    faulty: &NodeSet,
    instances: usize,
    inputs_for: FI,
    adversary: &mut A,
) -> (Vec<InstanceResult>, ChainStats)
where
    A: Adversary<FloodMsg> + Adversary<Alg2Message> + Adversary<P2pMessage>,
    FI: FnMut(u64) -> InputAssignment,
{
    assert_supported(kind, regime);
    let run = match kind {
        AlgorithmKind::Algorithm1 => run_chained::<Algorithm1Node, A, FI>,
        AlgorithmKind::Algorithm2 => run_chained::<Algorithm2Node, A, FI>,
        AlgorithmKind::P2pBaseline => run_chained::<P2pBaselineNode, A, FI>,
        AlgorithmKind::AsyncFlood => run_chained::<AsyncFloodNode, A, FI>,
    };
    run(regime, graph, f, faulty, instances, inputs_for, adversary)
}

/// Runs a chain of algorithm `P` over one network and judges every
/// instance against its own input assignment.
fn run_chained<P, A, FI>(
    regime: &Regime,
    graph: &Graph,
    f: usize,
    faulty: &NodeSet,
    instances: usize,
    mut inputs_for: FI,
    adversary: &mut A,
) -> (Vec<InstanceResult>, ChainStats)
where
    P: Algorithm,
    A: Adversary<P::Message>,
    FI: FnMut(u64) -> InputAssignment,
{
    let first = inputs_for(0);
    let nodes = nodes_for::<P>(graph, &first);
    let mut assignments: Vec<InputAssignment> = Vec::with_capacity(instances);
    assignments.push(first);
    let mut network =
        Network::new(graph.clone(), P::model(), faulty.clone(), nodes).with_fault_bound(f);
    let max_steps = P::step_budget(graph.node_count(), f, regime);
    let (reports, stats) = network.run_chain(regime, adversary, max_steps, instances, |k| {
        let inputs = inputs_for(k);
        let nodes = nodes_for::<P>(graph, &inputs);
        assignments.push(inputs);
        nodes
    });
    let results = reports
        .into_iter()
        .zip(assignments)
        .map(|(report, inputs)| InstanceResult {
            outcome: judge(graph, inputs, faulty, &report.outputs),
            all_non_faulty_terminated: report.all_non_faulty_terminated,
            steps: report.steps,
            transmissions: report.transmissions,
            deliveries: report.deliveries,
        })
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbc_graph::generators;
    use lbc_model::NodeId;
    use lbc_sim::HonestAdversary;

    /// A fault-free synchronous one-shot run.
    fn run_fault_free(
        kind: AlgorithmKind,
        graph: &Graph,
        inputs: &InputAssignment,
    ) -> (ConsensusOutcome, Trace) {
        run_kind_under(
            kind,
            &Regime::Synchronous,
            graph,
            1,
            inputs,
            &NodeSet::new(),
            &mut HonestAdversary,
        )
    }

    #[test]
    fn algorithm3_fault_free_on_k5() {
        let graph = generators::complete(5);
        let inputs = InputAssignment::from_bits(5, 0b10101);
        let (outcome, _) = run_algorithm3(
            &graph,
            1,
            1,
            &NodeSet::new(),
            &inputs,
            &NodeSet::new(),
            &mut HonestAdversary,
        );
        assert!(outcome.verdict().is_correct(), "{outcome}");
    }

    #[test]
    fn algorithm_kind_names_roundtrip() {
        for kind in AlgorithmKind::all() {
            assert_eq!(AlgorithmKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(AlgorithmKind::from_name("alg9"), None);
    }

    #[test]
    fn run_kind_dispatches_every_algorithm() {
        let graph = generators::complete(4);
        for bits in [0b0110, 0b0101] {
            let inputs = InputAssignment::from_bits(4, bits);
            for kind in AlgorithmKind::all() {
                let (outcome, _) = run_fault_free(kind, &graph, &inputs);
                assert!(outcome.verdict().is_correct(), "{}: {outcome}", kind.name());
            }
        }
        // The two local-broadcast round machines keep their round counts on
        // the 5-cycle: Algorithm 1 runs every phase, Algorithm 2 at most 3n.
        let cycle = generators::paper_fig1a();
        let inputs = InputAssignment::from_bits(5, 0b00110);
        let (outcome, trace) = run_fault_free(AlgorithmKind::Algorithm1, &cycle, &inputs);
        assert!(outcome.verdict().is_correct(), "{outcome}");
        assert_eq!(trace.rounds(), Algorithm1Node::round_count(5, 1));
        let inputs = InputAssignment::from_bits(5, 0b01011);
        let (outcome, trace) = run_fault_free(AlgorithmKind::Algorithm2, &cycle, &inputs);
        assert!(outcome.verdict().is_correct(), "{outcome}");
        assert!(trace.rounds() <= Algorithm2Node::round_count(5));
    }

    #[test]
    fn chained_runs_decide_every_instance_for_every_kind() {
        let graph = generators::complete(4);
        for kind in AlgorithmKind::all() {
            let (results, stats) = run_chain_under(
                kind,
                &Regime::Synchronous,
                &graph,
                1,
                &NodeSet::new(),
                3,
                |k| InputAssignment::from_bits(4, 0b0110 ^ k),
                &mut HonestAdversary,
            );
            assert_eq!(results.len(), 3, "{}", kind.name());
            for (k, result) in results.iter().enumerate() {
                assert!(result.all_non_faulty_terminated, "{} #{k}", kind.name());
                assert!(
                    result.outcome.verdict().is_correct(),
                    "{} #{k}: {}",
                    kind.name(),
                    result.outcome
                );
            }
            assert!(stats.max_live_per_tag <= 2, "{}", kind.name());
        }
    }

    #[test]
    fn chained_async_flood_rides_one_network_with_a_fault() {
        use lbc_model::{AsyncRegime, SchedulerKind};
        let graph = generators::circulant(9, &[1, 2]);
        let faulty = NodeSet::singleton(NodeId::new(3));
        let regime = Regime::Asynchronous(AsyncRegime {
            scheduler: SchedulerKind::EdgeLag,
            delay: 3,
            seed: 7,
        });
        let (results, stats) = run_chain_under(
            AlgorithmKind::AsyncFlood,
            &regime,
            &graph,
            1,
            &faulty,
            6,
            |k| InputAssignment::from_bits(9, 0b0_1101_1001 >> (k % 3)),
            &mut HonestAdversary,
        );
        assert_eq!(results.len(), 6);
        for (k, result) in results.iter().enumerate() {
            assert!(
                result.outcome.verdict().is_correct(),
                "#{k}: {}",
                result.outcome
            );
        }
        assert!(stats.max_live_per_tag <= 2);
        assert!(stats.max_allocated_channels <= 3 * stats.live_tags.max(1));
    }

    #[test]
    fn chain_of_one_judges_like_the_one_shot_runner() {
        let graph = generators::paper_fig1a();
        let inputs = InputAssignment::from_bits(5, 0b01011);
        for kind in AlgorithmKind::all() {
            let (one_shot, trace) = run_fault_free(kind, &graph, &inputs);
            let (results, _) = run_chain_under(
                kind,
                &Regime::Synchronous,
                &graph,
                1,
                &NodeSet::new(),
                1,
                |_| inputs.clone(),
                &mut HonestAdversary,
            );
            assert_eq!(results.len(), 1, "{}", kind.name());
            assert_eq!(
                format!("{}", results[0].outcome),
                format!("{one_shot}"),
                "{}",
                kind.name()
            );
            assert_eq!(
                results[0].transmissions,
                trace.total_transmissions(),
                "{}",
                kind.name()
            );
        }
    }
}
