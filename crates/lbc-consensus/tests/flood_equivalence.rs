//! Byte-level equivalence of the two flood engines: the production engine
//! checked against the reference.
//!
//! Both engines run the same whole-graph flood scripts — every node floods
//! its input for `n` rounds under local-broadcast delivery — and the tests
//! assert that per-round transcripts (every broadcast's value and resolved
//! path, in emission order), the final received maps, the overheard sets and
//! the received counts are identical across:
//!
//! * [`LedgerFlooder`] — the production shared-fabric engine,
//! * [`NaiveFlooder`] — the pre-interning reference.
//!
//! Scripts cover the fault-free case, relay tampering, attempted
//! equivocation (suppressed by rule (ii)), omission (silent nodes and
//! default injection), and divergent per-receiver deliveries (the situation
//! where the ledger's per-node overrides must carry the engine). Further
//! tests compare the query accessors value by value.

use lbc_consensus::flooding::{LedgerFlooder, NaiveFloodMsg, NaiveFlooder};
use lbc_consensus::{conditions, runner, FloodMsg};
use lbc_graph::{generators, Graph};
use lbc_model::{
    AsyncRegime, InputAssignment, NodeId, NodeSet, Path, Regime, SchedulerKind, SharedFloodLedger,
    SharedPathArena, Value,
};
use lbc_sim::{Delivery, Inbox, Outgoing};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// How a faulty node misbehaves in a script.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// The node never transmits (omission from the start).
    Silent(NodeId),
    /// The node flips the value of everything it sends after round 0.
    TamperRelays(NodeId),
    /// The node sends each of its transmissions twice with conflicting
    /// values (an equivocation attempt; under local broadcast both copies
    /// reach every neighbor and rule (ii) keeps only the first).
    Equivocate(NodeId),
}

/// An engine-independent transcript: per round, every node's broadcasts as
/// `(sender, value, resolved path)` in emission order; then the final state.
#[derive(Debug, PartialEq)]
struct Transcript {
    rounds: Vec<Vec<(NodeId, Value, Vec<NodeId>)>>,
    received_from: Vec<Vec<(Vec<NodeId>, Value)>>,
    overheard: Vec<Vec<(NodeId, Vec<NodeId>, Value)>>,
    received_counts: Vec<usize>,
}

fn apply_fault(
    fault: Fault,
    sender: NodeId,
    round: usize,
    msgs: Vec<(Value, Vec<NodeId>)>,
) -> Vec<(Value, Vec<NodeId>)> {
    match fault {
        Fault::None => msgs,
        Fault::Silent(bad) if sender == bad => Vec::new(),
        Fault::TamperRelays(bad) if sender == bad && round > 0 => {
            msgs.into_iter().map(|(v, p)| (v.flipped(), p)).collect()
        }
        Fault::Equivocate(bad) if sender == bad => msgs
            .into_iter()
            .flat_map(|(v, p)| [(v, p.clone()), (v.flipped(), p)])
            .collect(),
        _ => msgs,
    }
}

/// The minimal engine interface the generic script runner needs. Abstract
/// messages are `(value, path-as-nodes)` pairs so every engine's wire format
/// maps onto the same transcript.
trait Engine: Sized {
    type Msg: Clone;
    fn start(graph_nodes: usize, me: NodeId, input: Value) -> (Self, Vec<(Value, Vec<NodeId>)>);
    fn make_msg(&self, value: Value, path: &[NodeId]) -> Self::Msg;
    fn run_round(
        &mut self,
        graph: &Graph,
        first: bool,
        inbox: &[Delivery<Self::Msg>],
    ) -> Vec<(Value, Vec<NodeId>)>;
    fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)>;
    fn overheard(&self) -> Vec<(NodeId, Path, Value)>;
    fn received_count(&self) -> usize;
}

thread_local! {
    static ARENA: std::cell::RefCell<Option<(SharedPathArena, SharedFloodLedger)>> =
        const { std::cell::RefCell::new(None) };
}

/// The per-script shared state (arena + ledger) interned engines resolve
/// against; reset before every script so ids never leak across scripts.
fn fresh_shared() -> (SharedPathArena, SharedFloodLedger) {
    let pair = (SharedPathArena::new(), SharedFloodLedger::new());
    ARENA.with(|slot| *slot.borrow_mut() = Some(pair.clone()));
    pair
}

fn shared() -> (SharedPathArena, SharedFloodLedger) {
    ARENA.with(|slot| slot.borrow().clone().expect("script started"))
}

impl Engine for LedgerFlooder {
    type Msg = FloodMsg;

    fn start(_nodes: usize, me: NodeId, input: Value) -> (Self, Vec<(Value, Vec<NodeId>)>) {
        let (arena, ledger) = shared();
        let (flooder, out) = LedgerFlooder::start(arena.clone(), ledger, me, input);
        (flooder, resolve_out(&arena, &out))
    }

    fn make_msg(&self, value: Value, path: &[NodeId]) -> FloodMsg {
        let (arena, _) = shared();
        FloodMsg {
            value,
            path: arena.intern(&Path::from_nodes(path.iter().copied())),
        }
    }

    fn run_round(
        &mut self,
        graph: &Graph,
        first: bool,
        inbox: &[Delivery<FloodMsg>],
    ) -> Vec<(Value, Vec<NodeId>)> {
        let out = self.on_round(graph, first, Inbox::direct(inbox));
        let (arena, _) = shared();
        resolve_out(&arena, &out)
    }

    fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)> {
        LedgerFlooder::received_from(self, origin)
    }

    fn overheard(&self) -> Vec<(NodeId, Path, Value)> {
        LedgerFlooder::overheard(self)
    }

    fn received_count(&self) -> usize {
        LedgerFlooder::received_count(self)
    }
}

impl Engine for NaiveFlooder {
    type Msg = NaiveFloodMsg;

    fn start(_nodes: usize, me: NodeId, input: Value) -> (Self, Vec<(Value, Vec<NodeId>)>) {
        let (flooder, out) = NaiveFlooder::start(me, input);
        let resolved = out
            .iter()
            .map(|o| match o {
                Outgoing::Broadcast(m) => (m.value, m.path.nodes().to_vec()),
                Outgoing::Unicast(..) => unreachable!("flooding never unicasts"),
            })
            .collect();
        (flooder, resolved)
    }

    fn make_msg(&self, value: Value, path: &[NodeId]) -> NaiveFloodMsg {
        NaiveFloodMsg {
            value,
            path: Path::from_nodes(path.iter().copied()),
        }
    }

    fn run_round(
        &mut self,
        graph: &Graph,
        first: bool,
        inbox: &[Delivery<NaiveFloodMsg>],
    ) -> Vec<(Value, Vec<NodeId>)> {
        self.on_round(graph, first, Inbox::direct(inbox))
            .iter()
            .map(|o| match o {
                Outgoing::Broadcast(m) => (m.value, m.path.nodes().to_vec()),
                Outgoing::Unicast(..) => unreachable!("flooding never unicasts"),
            })
            .collect()
    }

    fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)> {
        NaiveFlooder::received_from(self, origin)
    }

    fn overheard(&self) -> Vec<(NodeId, Path, Value)> {
        NaiveFlooder::overheard(self)
    }

    fn received_count(&self) -> usize {
        NaiveFlooder::received_count(self)
    }
}

fn resolve_out(arena: &SharedPathArena, out: &[Outgoing<FloodMsg>]) -> Vec<(Value, Vec<NodeId>)> {
    out.iter()
        .map(|o| match o {
            Outgoing::Broadcast(m) => (m.value, arena.resolve(m.path).nodes().to_vec()),
            Outgoing::Unicast(..) => unreachable!("flooding never unicasts"),
        })
        .collect()
}

/// Runs one engine over the script and records the transcript.
fn run_engine<E: Engine>(
    graph: &Graph,
    inputs: &[Value],
    rounds: usize,
    fault: Fault,
) -> Transcript {
    let _ = fresh_shared();
    let node_count = graph.node_count();
    let mut flooders: Vec<E> = Vec::new();
    // pending[v] = the abstract messages v transmits before the next round.
    let mut pending: Vec<Vec<(Value, Vec<NodeId>)>> = Vec::new();
    for (v, &input) in inputs.iter().enumerate().take(node_count) {
        let (flooder, msgs) = E::start(node_count, n(v), input);
        flooders.push(flooder);
        pending.push(apply_fault(fault, n(v), 0, msgs));
    }

    let mut transcript_rounds = Vec::new();
    for round in 0..rounds {
        // Record this round's (faulted) transmissions.
        let mut record = Vec::new();
        for (v, msgs) in pending.iter().enumerate() {
            for (value, path) in msgs {
                record.push((n(v), *value, path.clone()));
            }
        }
        transcript_rounds.push(record);

        // Deliver to all neighbors, in sender order.
        let mut inboxes: Vec<Vec<Delivery<E::Msg>>> = (0..node_count).map(|_| Vec::new()).collect();
        for (sender, msgs) in pending.iter().enumerate() {
            for (value, path) in msgs {
                let message = flooders[sender].make_msg(*value, path);
                for neighbor in graph.neighbors(n(sender)) {
                    inboxes[neighbor.index()].push(Delivery {
                        from: n(sender),
                        message: message.clone(),
                    });
                }
            }
        }

        let mut next_pending = Vec::with_capacity(node_count);
        for (v, flooder) in flooders.iter_mut().enumerate() {
            let msgs = flooder.run_round(graph, round == 0, &inboxes[v]);
            next_pending.push(apply_fault(fault, n(v), round + 1, msgs));
        }
        pending = next_pending;
    }

    Transcript {
        rounds: transcript_rounds,
        received_from: flooders
            .iter()
            .map(|f| {
                (0..node_count)
                    .flat_map(|origin| {
                        f.received_from(n(origin))
                            .into_iter()
                            .map(|(p, v)| (p.nodes().to_vec(), v))
                    })
                    .collect()
            })
            .collect(),
        overheard: flooders
            .iter()
            .map(|f| {
                f.overheard()
                    .into_iter()
                    .map(|(from, p, v)| (from, p.nodes().to_vec(), v))
                    .collect()
            })
            .collect(),
        received_counts: flooders.iter().map(E::received_count).collect(),
    }
}

fn assert_equivalent(graph: &Graph, inputs: &[Value], fault: Fault, label: &str) {
    let rounds = graph.node_count() + 1;
    let naive = run_engine::<NaiveFlooder>(graph, inputs, rounds, fault);
    let ledger = run_engine::<LedgerFlooder>(graph, inputs, rounds, fault);
    assert_eq!(
        ledger.rounds, naive.rounds,
        "{label}: per-round transcripts diverge"
    );
    assert_eq!(
        ledger.received_from, naive.received_from,
        "{label}: received maps diverge"
    );
    assert_eq!(
        ledger.overheard, naive.overheard,
        "{label}: overheard sets diverge"
    );
    assert_eq!(
        ledger.received_counts, naive.received_counts,
        "{label}: received counts diverge"
    );
}

fn alternating_inputs(count: usize) -> Vec<Value> {
    (0..count).map(|i| Value::from(i % 2 == 0)).collect()
}

#[test]
fn fault_free_flood_is_identical_on_the_5_cycle() {
    let graph = generators::cycle(5);
    assert_equivalent(&graph, &alternating_inputs(5), Fault::None, "cycle5/honest");
}

#[test]
fn fault_free_flood_is_identical_on_the_clique() {
    let graph = generators::complete(5);
    assert_equivalent(&graph, &alternating_inputs(5), Fault::None, "k5/honest");
}

#[test]
fn tampered_relays_are_identical_on_cycle_and_clique() {
    for (label, graph) in [
        ("cycle6/tamper", generators::cycle(6)),
        ("k5/tamper", generators::complete(5)),
    ] {
        assert_equivalent(
            &graph,
            &alternating_inputs(graph.node_count()),
            Fault::TamperRelays(n(1)),
            label,
        );
    }
}

#[test]
fn equivocation_suppression_is_identical() {
    // The equivocating node's second, conflicting copy must be dropped by
    // rule (ii) in all engines, leaving identical state.
    for (label, graph) in [
        ("cycle5/equivocate", generators::cycle(5)),
        ("k4/equivocate", generators::complete(4)),
    ] {
        assert_equivalent(
            &graph,
            &alternating_inputs(graph.node_count()),
            Fault::Equivocate(n(0)),
            label,
        );
    }
}

#[test]
fn default_injection_for_silent_nodes_is_identical() {
    for (label, graph) in [
        ("cycle5/silent", generators::cycle(5)),
        ("k5/silent", generators::complete(5)),
    ] {
        assert_equivalent(
            &graph,
            &alternating_inputs(graph.node_count()),
            Fault::Silent(n(2)),
            label,
        );
    }
}

#[test]
fn wheel_and_circulant_floods_are_identical() {
    for (label, graph) in [
        ("wheel8/honest", generators::wheel(8)),
        ("circulant8/tamper", generators::circulant(8, &[1, 2])),
    ] {
        assert_equivalent(
            &graph,
            &alternating_inputs(graph.node_count()),
            Fault::TamperRelays(n(3)),
            label,
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Randomized: on random connected graphs satisfying the paper's f = 1
    /// conditions, with a random tamper / omission / equivocation fault, the
    /// ledger and naive engines produce byte-identical transcripts and final
    /// state.
    #[test]
    fn ledger_naive_equivalence_on_random_connected_graphs(
        size in 5usize..9,
        seed in 0u64..10_000,
        fault_index in 0usize..9,
        fault_kind in 0usize..4,
        bits in 0u64..512,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_satisfying(size, 1, 0.3, &mut rng);
        let bad = n(fault_index % graph.node_count());
        let fault = match fault_kind % 4 {
            0 => Fault::None,
            1 => Fault::Silent(bad), // omission
            2 => Fault::TamperRelays(bad),
            _ => Fault::Equivocate(bad),
        };
        let inputs: Vec<Value> = (0..graph.node_count())
            .map(|i| Value::from(bits >> i & 1 == 1))
            .collect();
        assert_equivalent(&graph, &inputs, fault, "random");
    }
}

/// Divergent per-receiver deliveries: the same `(sender, path)` key reaches
/// two receivers with *different* values (possible under point-to-point or
/// hybrid equivocators). The ledger records one first value; each node's
/// queries must still answer with the node's *own* first value — this is
/// the per-node override path that keeps sharing sound beyond local
/// broadcast.
#[test]
fn ledger_overrides_keep_divergent_views_per_node() {
    let graph = generators::cycle(5);
    let (arena, ledger) = fresh_shared();
    // Nodes 1 and 3 both neighbor nodes 0/2... use receivers 1 and 3 of
    // transmissions claimed from their common neighbor 2.
    let (mut at1, _) = LedgerFlooder::start(arena.clone(), ledger.clone(), n(1), Value::Zero);
    let (mut at3, _) = LedgerFlooder::start(arena.clone(), ledger.clone(), n(3), Value::Zero);
    // The per-node control: the reference engine keeps its own state.
    let (mut control1, _) = NaiveFlooder::start(n(1), Value::Zero);
    let (mut control3, _) = NaiveFlooder::start(n(3), Value::Zero);

    // Node 2 "initiates" with value One toward node 1 but value Zero toward
    // node 3 (an equivocation the physical layer permitted).
    let from2 = |value| Delivery {
        from: n(2),
        message: FloodMsg::initiation(value),
    };
    let naive_from2 = |value| Delivery {
        from: n(2),
        message: NaiveFloodMsg::initiation(value),
    };
    let _ = at1.on_round(&graph, true, Inbox::direct(&[from2(Value::One)]));
    let _ = at3.on_round(&graph, true, Inbox::direct(&[from2(Value::Zero)]));
    let _ = control1.on_round(&graph, true, Inbox::direct(&[naive_from2(Value::One)]));
    let _ = control3.on_round(&graph, true, Inbox::direct(&[naive_from2(Value::Zero)]));

    let via2_at1 = Path::from_nodes([n(2), n(1)]);
    let via2_at3 = Path::from_nodes([n(2), n(3)]);
    assert_eq!(at1.value_along(&via2_at1), Some(Value::One));
    assert_eq!(at3.value_along(&via2_at3), Some(Value::Zero));
    assert_eq!(at1.value_along(&via2_at1), control1.value_along(&via2_at1));
    assert_eq!(at3.value_along(&via2_at3), control3.value_along(&via2_at3));
    assert_eq!(at1.overheard(), control1.overheard());
    assert_eq!(at3.overheard(), control3.overheard());
}

#[test]
fn ledger_restart_behaves_like_a_fresh_start() {
    let graph = generators::cycle(5);
    let (arena, ledger) = fresh_shared();
    let (mut reused, _) = LedgerFlooder::start(arena.clone(), ledger.clone(), n(2), Value::Zero);
    let inbox = [
        Delivery {
            from: n(1),
            message: FloodMsg {
                value: Value::One,
                path: arena.intern(&Path::singleton(n(0))),
            },
        },
        Delivery {
            from: n(3),
            message: FloodMsg {
                value: Value::Zero,
                path: arena.intern(&Path::singleton(n(4))),
            },
        },
    ];
    let _ = reused.on_round(&graph, true, Inbox::direct(&inbox));
    assert!(reused.received_count() > 1);

    // Restarting with a new value must reproduce a fresh flooder's
    // behaviour exactly. The fresh control runs on the next epoch of the
    // same ledger — exactly what the restarted engine migrates to.
    let init = reused.restart(Value::One);
    let (mut fresh, fresh_init) =
        LedgerFlooder::start_on(arena.clone(), ledger.clone(), n(2), Value::One, 0, 1);
    assert_eq!(init, fresh_init);
    assert_eq!(reused.received_count(), fresh.received_count());
    assert_eq!(reused.own_value(), fresh.own_value());
    assert_eq!(reused.overheard(), fresh.overheard());

    let out_reused = reused.on_round(&graph, true, Inbox::direct(&inbox));
    let out_fresh = fresh.on_round(&graph, true, Inbox::direct(&inbox));
    assert_eq!(out_reused, out_fresh);
    assert_eq!(reused.received_from(n(0)), fresh.received_from(n(0)));
    assert_eq!(reused.received_from(n(4)), fresh.received_from(n(4)));
    assert_eq!(reused.overheard(), fresh.overheard());
}

#[test]
fn query_accessors_agree_value_by_value() {
    // Beyond transcript equality: spot-check the query APIs (value_along,
    // paths_with_value(_excluding), overheard(_ids), overheard_exactly) on
    // the clique where many paths exist.
    let graph = generators::complete(5);
    let inputs = alternating_inputs(5);
    let (arena, ledger) = fresh_shared();
    let mut ledgered: Vec<LedgerFlooder> = Vec::new();
    let mut naive: Vec<NaiveFlooder> = Vec::new();
    let mut pending_l = Vec::new();
    let mut pending_n = Vec::new();
    for (v, &input) in inputs.iter().enumerate() {
        let (f, out) = LedgerFlooder::start(arena.clone(), ledger.clone(), n(v), input);
        ledgered.push(f);
        pending_l.push(out);
        let (f, out) = NaiveFlooder::start(n(v), input);
        naive.push(f);
        pending_n.push(out);
    }
    for round in 0..5 {
        let mut inboxes_l: Vec<Vec<Delivery<FloodMsg>>> = vec![Vec::new(); 5];
        let mut inboxes_n: Vec<Vec<Delivery<NaiveFloodMsg>>> = vec![Vec::new(); 5];
        for sender in 0..5 {
            for o in &pending_l[sender] {
                if let Outgoing::Broadcast(m) = o {
                    for neighbor in graph.neighbors(n(sender)) {
                        inboxes_l[neighbor.index()].push(Delivery {
                            from: n(sender),
                            message: *m,
                        });
                    }
                }
            }
            for o in &pending_n[sender] {
                if let Outgoing::Broadcast(m) = o {
                    for neighbor in graph.neighbors(n(sender)) {
                        inboxes_n[neighbor.index()].push(Delivery {
                            from: n(sender),
                            message: m.clone(),
                        });
                    }
                }
            }
        }
        for v in 0..5 {
            pending_l[v] = ledgered[v].on_round(&graph, round == 0, Inbox::direct(&inboxes_l[v]));
            pending_n[v] = naive[v].on_round(&graph, round == 0, Inbox::direct(&inboxes_n[v]));
        }
    }
    let exclude: NodeSet = [n(1), n(3)].into_iter().collect();
    for v in 0..5 {
        let overheard = naive[v].overheard();
        assert_eq!(ledgered[v].overheard(), overheard, "overheard(v{v})");
        let resolved: Vec<(NodeId, Path, Value)> = ledgered[v]
            .overheard_ids()
            .into_iter()
            .map(|(from, path, value)| (from, arena.resolve(path), value))
            .collect();
        assert_eq!(resolved, overheard, "overheard_ids(v{v})");
        for (from, path, value) in overheard {
            let path = arena.intern(&path);
            assert!(ledgered[v].overheard_exactly(from, path, value));
            assert!(!ledgered[v].overheard_exactly(from, path, value.flipped()));
        }
        for origin in 0..5 {
            for value in [Value::Zero, Value::One] {
                assert_eq!(
                    ledgered[v].paths_with_value(n(origin), value),
                    naive[v].paths_with_value(n(origin), value),
                    "paths_with_value(v{v}, origin v{origin}, {value})"
                );
                assert_eq!(
                    ledgered[v].paths_with_value_excluding(n(origin), value, &exclude),
                    naive[v].paths_with_value_excluding(n(origin), value, &exclude),
                    "paths_with_value_excluding(v{v}, origin v{origin}, {value})"
                );
            }
            for (path, _) in naive[v].received_from(n(origin)) {
                assert_eq!(
                    ledgered[v].value_along(&path),
                    naive[v].value_along(&path),
                    "value_along(v{v}, {path})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Regime equivalence: the comparison extended to the asynchronous regime.
// ---------------------------------------------------------------------------
//
// The engine comparison above proves the two implementations of the flood
// rules agree under lockstep delivery. The asynchronous regime adds a second
// quantifier: the *delivery schedule*. On graphs that satisfy the async
// threshold (connectivity ≥ 2f + 1), a completed flood's accepted
// `(sender, path) → value` map — and therefore the async algorithm's
// decided values — must be identical under every eventually-fair schedule:
// rule (ii) plus per-edge FIFO pins each key's first copy regardless of
// cross-edge reordering. These tests permute the schedule (every scheduler
// family × several seeds × several fairness bounds) and assert the decided
// outputs are byte-identical and correct.

/// The schedule grid every case is permuted over.
fn schedule_grid() -> Vec<Regime> {
    let mut regimes = vec![Regime::Synchronous];
    for scheduler in SchedulerKind::all() {
        for (delay, seed) in [(2, 5u64), (4, 17), (6, 902)] {
            regimes.push(Regime::Asynchronous(AsyncRegime {
                scheduler,
                delay,
                seed,
            }));
        }
    }
    regimes
}

/// Runs the async algorithm over the schedule grid and asserts identical
/// outputs everywhere; returns the common outputs.
fn assert_schedule_invariant(
    graph: &Graph,
    f: usize,
    inputs: &InputAssignment,
    faulty: &NodeSet,
    strategy: &lbc_adversary::Strategy,
    label: &str,
) -> Vec<Option<Value>> {
    let mut reference: Option<Vec<Option<Value>>> = None;
    for regime in schedule_grid() {
        let mut adversary = strategy.clone().into_adversary();
        let (outcome, _) =
            runner::run_async_flood(graph, f, inputs, faulty, &regime, &mut adversary);
        let outputs: Vec<Option<Value>> = graph.nodes().map(|v| outcome.output_of(v)).collect();
        match &reference {
            None => reference = Some(outputs),
            Some(expected) => assert_eq!(
                &outputs, expected,
                "{label}: decided values changed under {regime}"
            ),
        }
    }
    reference.expect("the grid is non-empty")
}

#[test]
fn async_decisions_are_schedule_invariant_on_conforming_graphs() {
    // C9(1,2) is 4-connected: above the async threshold for f = 1.
    let graph = generators::circulant(9, &[1, 2]);
    assert!(conditions::asynchronous_feasible(&graph, 1));
    let inputs = InputAssignment::from_bits(9, 0b011011001);
    for strategy in [
        lbc_adversary::Strategy::Honest,
        lbc_adversary::Strategy::Silent,
        lbc_adversary::Strategy::TamperRelays,
        lbc_adversary::Strategy::TamperAll,
        lbc_adversary::Strategy::Equivocate,
    ] {
        for faulty_index in [0, 4] {
            let faulty = NodeSet::singleton(n(faulty_index));
            let outputs =
                assert_schedule_invariant(&graph, 1, &inputs, &faulty, &strategy, strategy.name());
            // Conforming graphs must also *agree* (on every schedule).
            let decided: Vec<Value> = graph
                .nodes()
                .filter(|v| !faulty.contains(*v))
                .map(|v| outputs[v.index()].expect("non-faulty nodes decide"))
                .collect();
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "{}: honest outputs disagree: {decided:?}",
                strategy.name()
            );
        }
    }
}

#[test]
fn async_decisions_are_schedule_invariant_even_below_threshold() {
    // The stronger fact behind the boundary campaign's determinism wall:
    // even where the algorithm *fails* (the cycle is 2-connected, below the
    // f = 1 threshold of 3), the failure itself is schedule-independent for
    // timing-independent strategies — the flood's accepted map does not
    // depend on the schedule, only the graph does.
    let graph = generators::cycle(5);
    assert!(!conditions::asynchronous_feasible(&graph, 1));
    let inputs = InputAssignment::from_bits(5, 0b11000);
    let faulty = NodeSet::singleton(n(0));
    let _ = assert_schedule_invariant(
        &graph,
        1,
        &inputs,
        &faulty,
        &lbc_adversary::Strategy::TamperRelays,
        "cycle5/tamper-relays",
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Scheduler-permuted deliveries yield identical decided values on
    /// random conforming graphs: Harary graphs H_{k,n} with k ≥ 3 are
    /// k-connected, hence above the async threshold for f = 1.
    #[test]
    fn async_schedule_invariance_on_random_conforming_graphs(
        k in 3usize..5,
        size in 6usize..11,
        fault_index in 0usize..11,
        strategy_index in 0usize..4,
        bits in 0u64..2048,
    ) {
        let size = size.max(k + 1);
        let graph = generators::harary(k, size);
        proptest::prop_assume!(conditions::asynchronous_feasible(&graph, 1));
        let strategy = [
            lbc_adversary::Strategy::Honest,
            lbc_adversary::Strategy::Silent,
            lbc_adversary::Strategy::TamperRelays,
            lbc_adversary::Strategy::Equivocate,
        ][strategy_index % 4]
            .clone();
        let faulty = NodeSet::singleton(n(fault_index % size));
        let inputs = InputAssignment::from_bits(size, bits);
        let outputs =
            assert_schedule_invariant(&graph, 1, &inputs, &faulty, &strategy, "random-harary");
        let decided: Vec<Value> = graph
            .nodes()
            .filter(|v| !faulty.contains(*v))
            .map(|v| outputs[v.index()].expect("non-faulty nodes decide"))
            .collect();
        proptest::prop_assert!(
            decided.windows(2).all(|w| w[0] == w[1]),
            "honest outputs disagree on a conforming graph: {:?}",
            decided
        );
    }
}
