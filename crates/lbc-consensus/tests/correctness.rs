//! End-to-end correctness of Algorithms 1–3 and the point-to-point baseline
//! under fault placements and adversary strategies.

use lbc_adversary::Strategy;
use lbc_consensus::{conditions, runner};
use lbc_graph::{generators, Graph};
use lbc_model::{InputAssignment, NodeId, NodeSet};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// A small but adversarial set of input assignments: all-zero, all-one,
/// alternating, single-one, single-zero.
fn input_battery(nodes: usize) -> Vec<InputAssignment> {
    let mut patterns = vec![
        InputAssignment::all_zero(nodes),
        InputAssignment::all_one(nodes),
        InputAssignment::from_bits(nodes, 0b0101_0101_0101_0101 & ((1 << nodes) - 1)),
        InputAssignment::from_bits(nodes, 1),
        InputAssignment::from_bits(nodes, ((1u64 << nodes) - 1) ^ 1),
    ];
    patterns.dedup();
    patterns
}

fn check_algorithm1(graph: &Graph, f: usize, faulty: &NodeSet, strategy: &Strategy) {
    for inputs in input_battery(graph.node_count()) {
        let mut adversary = strategy.clone().into_adversary();
        let (outcome, _) = runner::run_algorithm1(graph, f, &inputs, faulty, &mut adversary);
        assert!(
            outcome.verdict().is_correct(),
            "Algorithm 1 failed: graph n={}, f={f}, faulty={faulty}, strategy={}, inputs={inputs}: {outcome}",
            graph.node_count(),
            strategy.name(),
        );
    }
}

fn check_algorithm2(graph: &Graph, f: usize, faulty: &NodeSet, strategy: &Strategy) {
    for inputs in input_battery(graph.node_count()) {
        let mut adversary = strategy.clone().into_adversary();
        let (outcome, _) = runner::run_algorithm2(graph, f, &inputs, faulty, &mut adversary);
        assert!(
            outcome.verdict().is_correct(),
            "Algorithm 2 failed: graph n={}, f={f}, faulty={faulty}, strategy={}, inputs={inputs}: {outcome}",
            graph.node_count(),
            strategy.name(),
        );
    }
}

/// Figure 1(a): the 5-cycle tolerates a single Byzantine node under the local
/// broadcast model, for every fault placement and every adversary strategy.
#[test]
fn algorithm1_on_the_5_cycle_tolerates_one_fault() {
    let graph = generators::paper_fig1a();
    assert!(conditions::local_broadcast_feasible(&graph, 1));
    for faulty_node in 0..5 {
        let faulty = NodeSet::singleton(n(faulty_node));
        for strategy in Strategy::all(42) {
            check_algorithm1(&graph, 1, &faulty, &strategy);
        }
    }
}

/// K5 satisfies the f = 2 conditions (complete graph on 2f + 1 nodes);
/// Algorithm 1 reaches consensus for every 2-fault placement under the
/// tampering and crash strategies.
#[test]
fn algorithm1_on_k5_tolerates_two_faults() {
    let graph = generators::complete(5);
    assert!(conditions::local_broadcast_feasible(&graph, 2));
    let strategies = [
        Strategy::Silent,
        Strategy::TamperAll,
        Strategy::TamperRelays,
        Strategy::Equivocate,
    ];
    for a in 0..5 {
        for b in (a + 1)..5 {
            let faulty: NodeSet = [n(a), n(b)].into_iter().collect();
            for strategy in &strategies {
                check_algorithm1(&graph, 2, &faulty, strategy);
            }
        }
    }
}

/// The efficient Algorithm 2 on the 5-cycle (2f-connected for f = 1): every
/// fault placement, under commission-style misbehaviour (tampering,
/// equivocation attempts, late switches).
///
/// Omission-only misbehaviour is exercised separately by
/// [`algorithm2_omission_gap_reproduction_finding`], which documents a gap in
/// the paper's Appendix C fault-identification rule.
#[test]
fn algorithm2_on_the_5_cycle_tolerates_one_commission_fault() {
    let graph = generators::paper_fig1a();
    assert!(conditions::efficient_algorithm_applicable(&graph, 1));
    let strategies = [
        Strategy::Honest,
        Strategy::TamperAll,
        Strategy::TamperRelays,
        Strategy::Equivocate,
        Strategy::SleeperTamper { honest_rounds: 3 },
    ];
    for faulty_node in 0..5 {
        let faulty = NodeSet::singleton(n(faulty_node));
        for strategy in &strategies {
            check_algorithm2(&graph, 1, &faulty, strategy);
        }
    }
}

/// **Reproduction finding.** The fault-identification rule of Appendix C
/// ("mark the first node reliably reported to have forwarded the *opposite*
/// value") only detects commission (tampering). A faulty node that simply
/// *omits* relaying on an exactly-`2f`-connected graph can leave two type B
/// nodes with different reliably-received input sets and no identified
/// faults, so their majority decisions can differ.
///
/// Concretely: on the 5-cycle with inputs `1,0,1,0,1` and node 0 silent,
/// node 2 reliably receives only `{v0↦1 (default), v1↦0, v2↦1, v3↦0}` (a tie,
/// decided 0) while the other nodes see three ones and decide 1.
///
/// This test pins the counterexample down so that the gap — and any future
/// fix — is visible. Algorithm 1 (the paper's main algorithm) handles the
/// same scenario correctly, which the last assertion double-checks.
#[test]
fn algorithm2_omission_gap_reproduction_finding() {
    let graph = generators::paper_fig1a();
    let inputs = InputAssignment::from_bits(5, 0b10101);
    let faulty = NodeSet::singleton(n(0));

    let mut adversary = Strategy::Silent.into_adversary();
    let (outcome, _) = runner::run_algorithm2(&graph, 1, &inputs, &faulty, &mut adversary);
    let verdict = outcome.verdict();
    assert!(
        !verdict.agreement,
        "the documented Appendix C omission gap no longer reproduces; \
         update the Appendix C notes (Algorithm2Node docs, README) if \
         Algorithm 2 was strengthened: {outcome}"
    );
    assert!(verdict.validity && verdict.termination);

    // Algorithm 1 is immune: same graph, same inputs, same adversary.
    let mut adversary = Strategy::Silent.into_adversary();
    let (outcome, _) = runner::run_algorithm1(&graph, 1, &inputs, &faulty, &mut adversary);
    assert!(outcome.verdict().is_correct(), "{outcome}");
}

/// Algorithm 2 on K5 with two faults (K5 is 4-connected = 2f-connected).
#[test]
fn algorithm2_on_k5_tolerates_two_faults() {
    let graph = generators::complete(5);
    assert!(conditions::efficient_algorithm_applicable(&graph, 2));
    let strategies = [
        Strategy::Silent,
        Strategy::TamperRelays,
        Strategy::Equivocate,
    ];
    for a in 0..5 {
        for b in (a + 1)..5 {
            let faulty: NodeSet = [n(a), n(b)].into_iter().collect();
            for strategy in &strategies {
                check_algorithm2(&graph, 2, &faulty, strategy);
            }
        }
    }
}

/// Algorithm 2 is much cheaper than Algorithm 1 in rounds: 3n versus
/// n · Σ C(n, i).
#[test]
fn algorithm2_uses_linearly_many_rounds() {
    let graph = generators::paper_fig1a();
    let inputs = InputAssignment::from_bits(5, 0b01010);
    let faulty = NodeSet::singleton(n(1));
    let mut adversary = Strategy::TamperRelays.into_adversary();
    let (_, trace1) = runner::run_algorithm1(&graph, 1, &inputs, &faulty, &mut adversary);
    let mut adversary = Strategy::TamperRelays.into_adversary();
    let (_, trace2) = runner::run_algorithm2(&graph, 1, &inputs, &faulty, &mut adversary);
    assert!(trace2.rounds() < trace1.rounds());
    assert!(trace2.rounds() <= 15);
    assert_eq!(trace1.rounds(), 30);
}

/// Hybrid model: K5 with f = 1, t = 1 — the single fault may equivocate and
/// Algorithm 3 still reaches consensus.
#[test]
fn algorithm3_on_k5_tolerates_an_equivocating_fault() {
    let graph = generators::complete(5);
    assert!(conditions::hybrid_feasible(&graph, 1, 1));
    for faulty_node in 0..5 {
        let faulty = NodeSet::singleton(n(faulty_node));
        for strategy in [Strategy::Equivocate, Strategy::TamperAll, Strategy::Silent] {
            for inputs in input_battery(5) {
                let mut adversary = strategy.clone().into_adversary();
                let (outcome, _) =
                    runner::run_algorithm3(&graph, 1, 1, &faulty, &inputs, &faulty, &mut adversary);
                assert!(
                    outcome.verdict().is_correct(),
                    "Algorithm 3 failed: faulty={faulty}, strategy={}, inputs={inputs}: {outcome}",
                    strategy.name(),
                );
            }
        }
    }
}

/// Hybrid model with a *mixed* fault set: on K7 with f = 2, t = 1, one fault
/// equivocates and the other is restricted to local broadcast.
#[test]
fn algorithm3_on_k7_with_mixed_faults() {
    let graph = generators::complete(7);
    assert!(conditions::hybrid_feasible(&graph, 2, 1));
    let faulty: NodeSet = [n(0), n(3)].into_iter().collect();
    let equivocators = NodeSet::singleton(n(0));
    let inputs = InputAssignment::from_bits(7, 0b0110100);
    let mut adversary = Strategy::Equivocate.into_adversary();
    let (outcome, _) = runner::run_algorithm3(
        &graph,
        2,
        1,
        &equivocators,
        &inputs,
        &faulty,
        &mut adversary,
    );
    assert!(outcome.verdict().is_correct(), "{outcome}");
}

/// The point-to-point baseline works where Dolev's conditions hold (K4, f=1),
/// including against an equivocating fault.
#[test]
fn p2p_baseline_on_k4_tolerates_one_fault() {
    let graph = generators::complete(4);
    assert!(conditions::point_to_point_feasible(&graph, 1));
    for faulty_node in 0..4 {
        let faulty = NodeSet::singleton(n(faulty_node));
        for strategy in [
            Strategy::Silent,
            Strategy::TamperAll,
            Strategy::Equivocate,
            Strategy::Random { seed: 5 },
        ] {
            for inputs in input_battery(4) {
                let mut adversary = strategy.clone().into_adversary();
                let (outcome, _) =
                    runner::run_p2p_baseline(&graph, 1, &inputs, &faulty, &mut adversary);
                assert!(
                    outcome.verdict().is_correct(),
                    "p2p baseline failed: faulty={faulty}, strategy={}, inputs={inputs}: {outcome}",
                    strategy.name(),
                );
            }
        }
    }
}

/// The headline comparison: the 5-cycle supports f = 1 under local broadcast
/// but not under point-to-point; K5 supports f = 2 under local broadcast but
/// needs K7 under point-to-point.
#[test]
fn local_broadcast_needs_less_than_point_to_point() {
    let cycle = generators::paper_fig1a();
    assert!(conditions::local_broadcast_feasible(&cycle, 1));
    assert!(!conditions::point_to_point_feasible(&cycle, 1));

    let k5 = generators::complete(5);
    assert!(conditions::local_broadcast_feasible(&k5, 2));
    assert!(!conditions::point_to_point_feasible(&k5, 2));
    assert!(conditions::point_to_point_feasible(
        &generators::complete(7),
        2
    ));
}
