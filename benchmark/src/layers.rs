//! The traced pass: every execution of a workload replayed through the
//! public `lbc_sim::Network` with timing wrappers around the `Protocol`,
//! `Adversary` and `Observer` traits, so its cost splits across the
//! simulator, the protocol hooks (with the arena, ledger and graph-path work
//! they do), the adversary and the telemetry sink.
//!
//! Node sets and step budgets are rebuilt from the same public constructors
//! `lbc_consensus::runner` uses. Callers compare every replay with the
//! untraced record it stands for, so the traced pass cannot silently
//! measure a different program.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lbc_adversary::{Strategy, StrategyAdversary};
use lbc_consensus::p2p::P2pBaselineNode;
use lbc_consensus::{Algorithm1Node, Algorithm2Node, AlgorithmKind, AsyncFloodNode};
use lbc_graph::Graph;
use lbc_model::{
    CommModel, ConsensusOutcome, InputAssignment, NodeId, NodeSet, Regime, Round, Value,
};
use lbc_sim::{
    Adversary, ChainStats, Event, Inbox, InstanceReport, Network, NodeContext, Observer,
    ObserverHandle, Outgoing, Protocol, TraceSummary,
};

/// Work counts and busy times accumulated over replayed executions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Time inside `Network::run_under` / `Network::run_chain`.
    pub run_ns: u64,
    /// `on_start` + `on_round` calls and their time.
    pub protocol_calls: u64,
    pub protocol_ns: u64,
    /// `Adversary::intercept` calls and their time.
    pub adversary_calls: u64,
    pub adversary_ns: u64,
    /// Time inside the counting observer's callbacks.
    pub observer_ns: u64,
    /// Event tallies.
    pub observed_transmissions: u64,
    pub observed_deliveries: u64,
    pub scheduled: u64,
    pub held: u64,
    pub burst_released: u64,
    pub tampered: u64,
    pub omitted: u64,
    pub equivocated: u64,
    pub channels_opened: u64,
    pub channels_retired: u64,
    /// Arena entries at the end of each run (or chain), summed.
    pub arena_paths: u64,
    /// Most ledger channel slots allocated by any one run (or chain).
    pub max_allocated: u64,
    /// Steps, transmissions and deliveries as the runs' own traces count
    /// them.
    pub steps: u64,
    pub transmissions: u64,
    pub deliveries: u64,
    /// Steps in which a chained instance's tail was still draining.
    pub drained_steps: u64,
}

impl Totals {
    /// Adds `other` into `self` (`max_allocated` takes the maximum).
    pub fn merge(&mut self, other: &Totals) {
        let Totals {
            run_ns,
            protocol_calls,
            protocol_ns,
            adversary_calls,
            adversary_ns,
            observer_ns,
            observed_transmissions,
            observed_deliveries,
            scheduled,
            held,
            burst_released,
            tampered,
            omitted,
            equivocated,
            channels_opened,
            channels_retired,
            arena_paths,
            max_allocated,
            steps,
            transmissions,
            deliveries,
            drained_steps,
        } = *other;
        self.run_ns += run_ns;
        self.protocol_calls += protocol_calls;
        self.protocol_ns += protocol_ns;
        self.adversary_calls += adversary_calls;
        self.adversary_ns += adversary_ns;
        self.observer_ns += observer_ns;
        self.observed_transmissions += observed_transmissions;
        self.observed_deliveries += observed_deliveries;
        self.scheduled += scheduled;
        self.held += held;
        self.burst_released += burst_released;
        self.tampered += tampered;
        self.omitted += omitted;
        self.equivocated += equivocated;
        self.channels_opened += channels_opened;
        self.channels_retired += channels_retired;
        self.arena_paths += arena_paths;
        self.max_allocated = self.max_allocated.max(max_allocated);
        self.steps += steps;
        self.transmissions += transmissions;
        self.deliveries += deliveries;
        self.drained_steps += drained_steps;
    }

    /// Simulator time: run time not spent in the protocol hooks, the
    /// adversary or the observer.
    pub fn network_self_ns(&self) -> u64 {
        self.run_ns
            .saturating_sub(self.protocol_ns + self.adversary_ns + self.observer_ns)
    }

    fn add_summary(&mut self, summary: &TraceSummary) {
        self.steps += summary.rounds as u64;
        self.transmissions += summary.transmissions as u64;
        self.deliveries += summary.deliveries as u64;
    }
}

type Shared = Rc<RefCell<Totals>>;

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A protocol instance whose hooks are timed.
struct Timed<P> {
    inner: P,
    totals: Shared,
}

impl<P: Protocol> Timed<P> {
    fn call<T>(&mut self, hook: impl FnOnce(&mut P) -> T) -> T {
        let started = Instant::now();
        let out = hook(&mut self.inner);
        let mut totals = self.totals.borrow_mut();
        totals.protocol_calls += 1;
        totals.protocol_ns += nanos_since(started);
        out
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<P::Message>> {
        // One-shot runs switch the ledger's channel log on for an attached
        // observer; chained runs do not, so the ledger's write side would
        // stay invisible on exactly the workload it is heavy in.
        if ctx.observer.enabled() && !ctx.ledger.borrow().event_log_enabled() {
            ctx.ledger.set_event_log(true);
        }
        self.call(|inner| inner.on_start(ctx))
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: Round,
        inbox: Inbox<'_, P::Message>,
    ) -> Vec<Outgoing<P::Message>> {
        self.call(|inner| inner.on_round(ctx, round, inbox))
    }

    fn output(&self) -> Option<Value> {
        self.inner.output()
    }

    fn has_terminated(&self) -> bool {
        self.inner.has_terminated()
    }

    fn decision_evidence(&self) -> Vec<(NodeId, Value)> {
        self.inner.decision_evidence()
    }
}

/// An adversary whose interceptions are timed.
struct TimedAdversary {
    inner: StrategyAdversary,
    totals: Shared,
}

impl<M> Adversary<M> for TimedAdversary
where
    StrategyAdversary: Adversary<M>,
{
    fn intercept(
        &mut self,
        ctx: &NodeContext<'_>,
        round: Option<Round>,
        honest_outgoing: Vec<Outgoing<M>>,
        inbox: Inbox<'_, M>,
    ) -> Vec<Outgoing<M>> {
        let started = Instant::now();
        let out = self.inner.intercept(ctx, round, honest_outgoing, inbox);
        let mut totals = self.totals.borrow_mut();
        totals.adversary_calls += 1;
        totals.adversary_ns += nanos_since(started);
        out
    }
}

/// The telemetry sink of the traced pass: tallies events, times itself.
struct Counting {
    totals: Shared,
}

impl Observer for Counting {
    fn on_event(&mut self, event: &Event) {
        let started = Instant::now();
        let mut totals = self.totals.borrow_mut();
        match event {
            Event::Transmission { .. } => totals.observed_transmissions += 1,
            Event::Delivery { .. } => totals.observed_deliveries += 1,
            Event::Scheduled { .. } => totals.scheduled += 1,
            Event::Held { .. } => totals.held += 1,
            Event::BurstRelease { count, .. } => totals.burst_released += *count as u64,
            Event::AdversaryAction {
                tampered,
                omitted,
                equivocated,
                ..
            } => {
                totals.tampered += *tampered as u64;
                totals.omitted += *omitted as u64;
                totals.equivocated += *equivocated as u64;
            }
            Event::ChannelOpened { .. } => totals.channels_opened += 1,
            Event::ChannelRetired { .. } => totals.channels_retired += 1,
            Event::RunEnd {
                arena_paths,
                allocated_channels,
                ..
            } => {
                totals.arena_paths += *arena_paths as u64;
                totals.max_allocated = totals.max_allocated.max(*allocated_channels as u64);
            }
            _ => {}
        }
        totals.observer_ns += nanos_since(started);
    }
}

/// A network over timed nodes, with the counting observer attached when
/// `observe` is set.
fn instrumented<P: Protocol>(
    graph: &Graph,
    model: CommModel,
    faulty: &NodeSet,
    f: usize,
    nodes: Vec<P>,
    totals: &Shared,
    observe: bool,
) -> Network<Timed<P>> {
    let network =
        Network::new(graph.clone(), model, faulty.clone(), wrap(nodes, totals)).with_fault_bound(f);
    if !observe {
        return network;
    }
    let observer = Rc::new(RefCell::new(Counting {
        totals: Rc::clone(totals),
    }));
    network.with_observer(ObserverHandle::from_shared(observer))
}

fn wrap<P>(nodes: Vec<P>, totals: &Shared) -> Vec<Timed<P>> {
    nodes
        .into_iter()
        .map(|inner| Timed {
            inner,
            totals: Rc::clone(totals),
        })
        .collect()
}

/// What an execution does with the node set and step budget of its
/// algorithm; [`dispatch`] supplies both, as `lbc_consensus::runner` does.
trait Execute {
    type Output;

    fn execute<P, B>(self, model: CommModel, max_steps: usize, build: B) -> Self::Output
    where
        P: Protocol + 'static,
        StrategyAdversary: Adversary<P::Message>,
        B: Fn(&InputAssignment) -> Vec<P>;
}

/// The runner's safety margin on the theoretical round counts.
const ROUND_MARGIN: usize = 2;

fn dispatch<E: Execute>(
    kind: AlgorithmKind,
    regime: &Regime,
    graph: &Graph,
    f: usize,
    exec: E,
) -> E::Output {
    let n = graph.node_count();
    match kind {
        AlgorithmKind::Algorithm1 => exec.execute(
            CommModel::LocalBroadcast,
            Algorithm1Node::round_count(n, f) * ROUND_MARGIN + 2,
            |inputs| {
                graph
                    .nodes()
                    .map(|v| Algorithm1Node::new(inputs.get(v)))
                    .collect()
            },
        ),
        AlgorithmKind::Algorithm2 => exec.execute(
            CommModel::LocalBroadcast,
            Algorithm2Node::round_count(n) * ROUND_MARGIN + 2,
            |inputs| {
                graph
                    .nodes()
                    .map(|v| Algorithm2Node::new(inputs.get(v)))
                    .collect()
            },
        ),
        AlgorithmKind::P2pBaseline => exec.execute(
            CommModel::PointToPoint,
            P2pBaselineNode::round_count(n, f) * ROUND_MARGIN + 2,
            |inputs| {
                graph
                    .nodes()
                    .map(|v| P2pBaselineNode::new(inputs.get(v)))
                    .collect()
            },
        ),
        AlgorithmKind::AsyncFlood => exec.execute(
            CommModel::LocalBroadcast,
            AsyncFloodNode::step_count_under(n, regime),
            |inputs| {
                graph
                    .nodes()
                    .map(|v| AsyncFloodNode::new(inputs.get(v)))
                    .collect()
            },
        ),
    }
}

/// One execution's coordinates, and how to replay it.
pub struct Run<'a> {
    pub kind: AlgorithmKind,
    pub regime: &'a Regime,
    pub graph: &'a Graph,
    pub f: usize,
    pub faulty: &'a NodeSet,
    pub strategy: &'a Strategy,
    /// Attach the counting observer. Its events cost far more than the
    /// run itself on flood-heavy cells, so times come from a pass without
    /// it and event counts from a pass with it.
    pub observe: bool,
}

struct OneShot<'a> {
    run: &'a Run<'a>,
    inputs: &'a InputAssignment,
    totals: &'a Shared,
}

impl Execute for OneShot<'_> {
    type Output = (Vec<Option<Value>>, TraceSummary);

    fn execute<P, B>(self, model: CommModel, max_steps: usize, build: B) -> Self::Output
    where
        P: Protocol + 'static,
        StrategyAdversary: Adversary<P::Message>,
        B: Fn(&InputAssignment) -> Vec<P>,
    {
        let run = self.run;
        let mut network = instrumented(
            run.graph,
            model,
            run.faulty,
            run.f,
            build(self.inputs),
            self.totals,
            run.observe,
        );
        let mut adversary = TimedAdversary {
            inner: run.strategy.clone().into_adversary(),
            totals: Rc::clone(self.totals),
        };
        let started = Instant::now();
        let report = network.run_under(run.regime, &mut adversary, max_steps);
        self.totals.borrow_mut().run_ns += nanos_since(started);
        (report.outputs, report.trace.summary())
    }
}

struct Chained<'a> {
    run: &'a Run<'a>,
    input_sets: &'a [InputAssignment],
    instances: usize,
    totals: &'a Shared,
}

impl Execute for Chained<'_> {
    type Output = (Vec<InstanceReport>, ChainStats);

    fn execute<P, B>(self, model: CommModel, max_steps: usize, build: B) -> Self::Output
    where
        P: Protocol + 'static,
        StrategyAdversary: Adversary<P::Message>,
        B: Fn(&InputAssignment) -> Vec<P>,
    {
        let run = self.run;
        let sets = self.input_sets;
        let mut network = instrumented(
            run.graph,
            model,
            run.faulty,
            run.f,
            build(&sets[0]),
            self.totals,
            run.observe,
        );
        let mut adversary = TimedAdversary {
            inner: run.strategy.clone().into_adversary(),
            totals: Rc::clone(self.totals),
        };
        let started = Instant::now();
        let chained =
            network.run_chain(run.regime, &mut adversary, max_steps, self.instances, |k| {
                wrap(build(&sets[k as usize % sets.len()]), self.totals)
            });
        self.totals.borrow_mut().run_ns += nanos_since(started);
        chained
    }
}

fn judge(
    graph: &Graph,
    inputs: &InputAssignment,
    faulty: &NodeSet,
    outputs: &[Option<Value>],
) -> ConsensusOutcome {
    let mut outcome = ConsensusOutcome::new(inputs.clone(), faulty.clone());
    for node in graph.nodes() {
        if let Some(value) = outputs[node.index()] {
            outcome.record_output(node, value);
        }
    }
    outcome
}

/// Replays one execution with every layer timed; returns the judged
/// outcome, the run's own trace totals, and the layer tallies.
pub fn replay(run: &Run<'_>, inputs: &InputAssignment) -> (ConsensusOutcome, TraceSummary, Totals) {
    let totals: Shared = Rc::default();
    let (outputs, summary) = dispatch(
        run.kind,
        run.regime,
        run.graph,
        run.f,
        OneShot {
            run,
            inputs,
            totals: &totals,
        },
    );
    let mut tally = *totals.borrow();
    tally.add_summary(&summary);
    (
        judge(run.graph, inputs, run.faulty, &outputs),
        summary,
        tally,
    )
}

/// Replays one chained lane (`instances` consecutive instances, instance
/// `k` on `input_sets[k mod len]`); returns each instance's judged outcome
/// and report, the chain's resource marks, and the layer tallies.
pub fn replay_chain(
    run: &Run<'_>,
    input_sets: &[InputAssignment],
    instances: usize,
) -> (Vec<(ConsensusOutcome, InstanceReport)>, ChainStats, Totals) {
    let totals: Shared = Rc::default();
    let (reports, stats) = dispatch(
        run.kind,
        run.regime,
        run.graph,
        run.f,
        Chained {
            run,
            input_sets,
            instances,
            totals: &totals,
        },
    );
    let mut tally = *totals.borrow();
    tally.arena_paths += stats.arena_paths as u64;
    tally.max_allocated = tally.max_allocated.max(stats.max_allocated_channels as u64);
    tally.drained_steps += stats.drained_steps as u64;
    let judged = reports
        .into_iter()
        .enumerate()
        .map(|(k, report)| {
            tally.steps += report.steps as u64;
            tally.transmissions += report.transmissions as u64;
            tally.deliveries += report.deliveries as u64;
            let inputs = &input_sets[k % input_sets.len()];
            (
                judge(run.graph, inputs, run.faulty, &report.outputs),
                report,
            )
        })
        .collect();
    (judged, stats, tally)
}

/// Maps `job` over `items` on at most `workers` threads, keeping item
/// order.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    job: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        mine.push((index, job(item)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("a replay worker panicked"))
            .collect()
    });
    done.sort_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}
