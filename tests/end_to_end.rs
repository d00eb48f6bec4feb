//! Workspace-level integration tests: the public facade, cross-crate flows,
//! and the headline claims of the paper exercised end to end.

use local_broadcast_consensus::model::{AdversarialSchedule, AsyncRegime, SchedulerKind};
use local_broadcast_consensus::prelude::*;
use local_broadcast_consensus::sim::{Event, ObserverHandle, TraceSummary};
use local_broadcast_consensus::{experiments, lowerbound};

/// The paper's headline sufficiency claim, end to end through the facade:
/// graphs meeting the conditions reach consensus with a Byzantine fault.
#[test]
fn sufficiency_end_to_end_via_facade() {
    let graph = generators::paper_fig1a();
    assert!(conditions::local_broadcast_feasible(&graph, 1));
    let inputs = InputAssignment::from_bits(5, 0b10110);
    let faulty = NodeSet::singleton(NodeId::new(4));
    let mut adversary = Strategy::TamperAll.into_adversary();
    let (outcome, trace) = runner::run_kind_under(
        AlgorithmKind::Algorithm1,
        &Regime::Synchronous,
        &graph,
        1,
        &inputs,
        &faulty,
        &mut adversary,
    );
    assert!(outcome.verdict().is_correct());
    assert_eq!(trace.rounds(), Algorithm1Node::round_count(5, 1));
}

/// The paper's headline necessity claim, end to end: a graph one short of the
/// connectivity condition yields a concrete agreement violation through the
/// Figure 3 construction.
#[test]
fn necessity_end_to_end_via_facade() {
    let graph = generators::cycle(6);
    assert!(!conditions::local_broadcast_feasible(&graph, 2));
    let construction = lowerbound::connectivity_construction(&graph, 2).expect("deficient");
    let rounds = Algorithm1Node::round_count(6, 2) + 4;
    let report = construction.demonstrate(|_id, input| Algorithm1Node::new(input), rounds);
    assert!(report.exhibits_violation());
}

/// The three models' requirement ordering on every graph family we generate:
/// local broadcast ≤ efficient (2f) ≤ ... and never worse than point-to-point.
#[test]
fn requirement_ordering_across_families() {
    let graphs = vec![
        generators::complete(6),
        generators::cycle(7),
        generators::circulant(8, &[1, 2]),
        generators::hypercube(3),
        generators::wheel(7),
        generators::harary(4, 9),
    ];
    for graph in graphs {
        let lb = conditions::max_f_local_broadcast(&graph);
        let p2p = conditions::max_f_point_to_point(&graph);
        let eff = conditions::max_f_efficient(&graph);
        assert!(lb >= p2p, "local broadcast must never be worse");
        assert!(
            lb >= eff,
            "the tight condition is weaker than 2f-connectivity"
        );
    }
}

/// Complete graphs: the paper's n ≥ 2f + 1 (local broadcast) versus the
/// classical n ≥ 3f + 1.
#[test]
fn complete_graph_thresholds() {
    for f in 1..=3usize {
        assert!(conditions::local_broadcast_feasible(
            &generators::complete(2 * f + 1),
            f
        ));
        assert!(!conditions::local_broadcast_feasible(
            &generators::complete(2 * f),
            f
        ));
        assert!(conditions::point_to_point_feasible(
            &generators::complete(3 * f + 1),
            f
        ));
        assert!(!conditions::point_to_point_feasible(
            &generators::complete(3 * f),
            f
        ));
    }
}

/// The experiment harness produces non-empty, well-formed tables for every
/// experiment id.
#[test]
fn experiment_harness_smoke() {
    let e5 = experiments::e5_threshold_sweep();
    assert_eq!(e5.id, "E5");
    assert!(!e5.rows.is_empty());
    assert!(e5.render_table().contains("local broadcast"));

    let e7 = experiments::e7_hybrid_tradeoff();
    assert!(e7.rows.iter().any(|row| row[0] == "2" && row[1] == "1"));
}

/// The hybrid model interpolates: with t = 0 the hybrid feasibility predicate
/// coincides with the local broadcast predicate; with t = f it coincides with
/// the point-to-point predicate, on a spread of graphs.
#[test]
fn hybrid_model_interpolates_between_the_two_models() {
    let graphs = vec![
        generators::complete(5),
        generators::complete(7),
        generators::cycle(6),
        generators::circulant(9, &[1, 2]),
        generators::wheel(7),
    ];
    for graph in &graphs {
        for f in 0..=2usize {
            assert_eq!(
                conditions::hybrid_feasible(graph, f, 0),
                conditions::local_broadcast_feasible(graph, f),
                "t = 0 must match local broadcast (n={}, f={f})",
                graph.node_count()
            );
            // For t = f, condition (i) gives 2f+1-connectivity and condition
            // (iii) forces every node to have ≥ 2f+1 neighbors; together with
            // n > 2f+1... the paper notes (iii) implies n ≥ 3f+1 on feasible
            // graphs. Verify agreement with the Dolev predicate on complete
            // graphs, where the two are exactly equivalent.
            if graph.min_degree() + 1 == graph.node_count() {
                assert_eq!(
                    conditions::hybrid_feasible(graph, f, f),
                    conditions::point_to_point_feasible(graph, f),
                    "t = f must match point-to-point on complete graphs (n={}, f={f})",
                    graph.node_count()
                );
            }
        }
    }
}

/// Running the same seed twice produces identical traces (determinism of the
/// whole stack: graph generation, simulation, adversary).
#[test]
fn executions_are_deterministic() {
    let graph = generators::paper_fig1a();
    let inputs = InputAssignment::from_bits(5, 0b00101);
    let faulty = NodeSet::singleton(NodeId::new(2));
    let run = || {
        let mut adversary = Strategy::Random { seed: 99 }.into_adversary();
        runner::run_kind_under(
            AlgorithmKind::Algorithm1,
            &Regime::Synchronous,
            &graph,
            1,
            &inputs,
            &faulty,
            &mut adversary,
        )
    };
    let (o1, t1) = run();
    let (o2, t2) = run();
    assert_eq!(o1, o2);
    assert_eq!(t1, t2);
}

/// Runs one f = 1 cell three ways: unobserved, under an observer, and as a
/// chain of one. Returns both trace summaries and the chained instance's
/// transmission count.
fn accounting(
    kind: AlgorithmKind,
    regime: &Regime,
    graph: &Graph,
    strategy: &Strategy,
    faulty: usize,
    bits: u64,
) -> (TraceSummary, TraceSummary, usize) {
    let inputs = InputAssignment::from_bits(graph.node_count(), bits);
    let faulty = NodeSet::singleton(NodeId::new(faulty));
    let (_, plain) = runner::run_kind_under(
        kind,
        regime,
        graph,
        1,
        &inputs,
        &faulty,
        &mut strategy.clone().into_adversary(),
    );
    let (observer, _events) = ObserverHandle::recorder();
    let (_, observed) = runner::run_kind_observed(
        kind,
        regime,
        graph,
        1,
        &inputs,
        &faulty,
        &mut strategy.clone().into_adversary(),
        observer,
    );
    let (chained, _) = runner::run_chain_under(
        kind,
        regime,
        graph,
        1,
        &faulty,
        1,
        |_| inputs.clone(),
        &mut strategy.clone().into_adversary(),
    );
    (
        plain.summary(),
        observed.summary(),
        chained[0].transmissions,
    )
}

/// A summary with the given counters and no interference.
fn totals(rounds: usize, transmissions: usize, deliveries: usize, burst: usize) -> TraceSummary {
    TraceSummary {
        rounds,
        transmissions,
        deliveries,
        burst_deliveries: burst,
        ..TraceSummary::default()
    }
}

/// The simulator's accounting, pinned exactly on two lockstep and two
/// event-scheduled cells. Only an observer measures the adversary's
/// interference; partial synchrony counts its GST burst either way; and a
/// chain of one reports the one-shot run's transmissions.
#[test]
fn step_accounting_is_pinned_in_both_loops() {
    let c9 = generators::circulant(9, &[1, 2]);
    let edge_lag = Regime::Asynchronous(AsyncRegime {
        scheduler: SchedulerKind::EdgeLag,
        delay: 4,
        seed: 7,
    });
    let psync = Regime::PartialSync {
        gst: 12,
        pre: AdversarialSchedule::holding(&[2]),
        post: AsyncRegime {
            scheduler: SchedulerKind::Fifo,
            delay: 3,
            seed: 7,
        },
    };
    let interfered = |summary: TraceSummary, tampered, equivocated| TraceSummary {
        tampered,
        equivocated,
        ..summary
    };
    let cells = [
        (
            AlgorithmKind::Algorithm1,
            Regime::Synchronous,
            generators::paper_fig1a(),
            Strategy::TamperRelays,
            2,
            0b0_1101,
            totals(30, 270, 540, 0),
            (53, 0),
        ),
        (
            AlgorithmKind::P2pBaseline,
            Regime::Synchronous,
            generators::complete(4),
            Strategy::Equivocate,
            0,
            0b0110,
            totals(24, 384, 768, 0),
            (64, 128),
        ),
        (
            AlgorithmKind::AsyncFlood,
            edge_lag,
            c9.clone(),
            Strategy::Equivocate,
            3,
            0b1_0110_0101,
            totals(41, 11_676, 46_704, 0),
            (973, 2919),
        ),
        (
            AlgorithmKind::AsyncFlood,
            psync,
            c9,
            Strategy::Equivocate,
            3,
            0b1_0110_0101,
            totals(43, 11_676, 46_704, 3892),
            (973, 2919),
        ),
    ];
    for (kind, regime, graph, strategy, faulty, bits, plain, (tampered, equivocated)) in cells {
        let cell = format!("{} under {regime}", kind.name());
        let (unobserved, observed, chained) =
            accounting(kind, &regime, &graph, &strategy, faulty, bits);
        assert_eq!(unobserved, plain, "{cell}");
        assert_eq!(observed, interfered(plain, tampered, equivocated), "{cell}");
        assert_eq!(chained, plain.transmissions, "{cell}");
    }
}

/// The README's κ ≥ 2f+1 claim for the asynchronous algorithm, on the
/// evidence each node decides on: a value forged at the faulty relay can
/// occupy at most f disjoint paths, so every correct node reliably receives
/// every correct origin's input and never its flip.
#[test]
fn async_reliable_sets_hold_every_correct_input_under_tampering() {
    let edge_lag = |delay, seed| {
        Regime::Asynchronous(AsyncRegime {
            scheduler: SchedulerKind::EdgeLag,
            delay,
            seed,
        })
    };
    let cells = [
        (
            "C9(1,2)",
            generators::circulant(9, &[1, 2]),
            edge_lag(4, 7),
            3,
            0b0_1101_1001,
        ),
        (
            "C11(1,2)",
            generators::circulant(11, &[1, 2]),
            edge_lag(4, 7),
            5,
            0b101_1001_1010,
        ),
        // The serve-chain benchmark's edge-lag lane: Figure 1b, f = 1,
        // edge-lag d3, node 3 faulty.
        (
            "fig1b",
            generators::paper_fig1b(),
            edge_lag(3, 909),
            3,
            0b1_0110_0101,
        ),
    ];
    for (name, graph, regime, faulty, bits) in cells {
        let n = graph.node_count();
        let inputs = InputAssignment::from_bits(n, bits);
        let faulty = NodeSet::singleton(NodeId::new(faulty));
        let (observer, events) = ObserverHandle::recorder();
        let (outcome, _) = runner::run_kind_observed(
            AlgorithmKind::AsyncFlood,
            &regime,
            &graph,
            1,
            &inputs,
            &faulty,
            &mut Strategy::TamperRelays.into_adversary(),
            observer,
        );
        assert!(outcome.verdict().is_correct(), "{name}");
        let mut decided = 0;
        for event in events.borrow().events() {
            let Event::NodeDecided { node, evidence, .. } = event else {
                continue;
            };
            if faulty.contains(*node) {
                continue;
            }
            decided += 1;
            for (origin, input) in inputs.iter() {
                if faulty.contains(origin) {
                    continue;
                }
                assert!(
                    evidence.contains(&(origin, input)),
                    "{name}: {node} misses {origin}'s input {input}"
                );
                assert!(
                    !evidence.contains(&(origin, input.flipped())),
                    "{name}: {node} accepted {origin}'s forged {}",
                    input.flipped()
                );
            }
        }
        assert_eq!(decided, n - 1, "{name}");
    }
}

/// `lbc run` builds one input per node on graphs of any size: a 65-node
/// cycle, one past the 64-bit input mask, runs to a decision.
#[test]
fn lbc_run_accepts_graphs_above_64_nodes() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_lbc"))
        .args(["run", "async", "c65", "1", "0", "honest"])
        .output()
        .expect("lbc starts");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let inputs = stdout
        .lines()
        .find_map(|line| line.strip_prefix("inputs  = "))
        .expect("an inputs line");
    assert_eq!(inputs.len(), 65, "{inputs}");
    assert!(inputs.chars().all(|c| c == '0' || c == '1'), "{inputs}");
}

/// Piping a long timeline into a reader that stops early (`lbc trace … |
/// head`) ends `lbc` quietly with status 0 instead of a broken-pipe panic.
#[test]
fn lbc_trace_exits_cleanly_when_its_reader_stops_early() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/campaigns/async_boundary.json"
    );
    // Cell 72 prints about 79,000 lines, far more than a pipe buffers.
    let mut child = Command::new(env!("CARGO_BIN_EXE_lbc"))
        .args(["trace", spec, "--cell", "72"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lbc starts");
    let mut first = String::new();
    {
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("a first line");
    }
    let output = child.wait_with_output().expect("lbc exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(first.starts_with("cell #72"), "{first}");
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
