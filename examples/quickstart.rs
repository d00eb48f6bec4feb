//! Quickstart: Byzantine consensus on the paper's Figure 1(a) graph.
//!
//! The 5-cycle has minimum degree 2 = 2f and vertex connectivity 2 = ⌊3f/2⌋+1
//! for f = 1, so under the local broadcast model it tolerates one Byzantine
//! node — even though the classical point-to-point model would require a
//! 3-connected graph on at least 4 nodes.
//!
//! Run with: `cargo run --example quickstart`

use local_broadcast_consensus::prelude::*;

fn main() {
    let graph = generators::paper_fig1a();
    let f = 1;

    println!("graph: 5-cycle (Figure 1a)");
    println!(
        "  min degree = {}, vertex connectivity = {}",
        graph.min_degree(),
        connectivity::vertex_connectivity(&graph)
    );
    println!(
        "  local broadcast feasible for f={f}: {}",
        conditions::local_broadcast_feasible(&graph, f)
    );
    println!(
        "  point-to-point feasible for f={f}:  {}",
        conditions::point_to_point_feasible(&graph, f)
    );
    println!();

    // Node 3 is Byzantine and tampers every message it relays.
    let inputs = InputAssignment::from_bits(5, 0b01101);
    let faulty = NodeSet::singleton(NodeId::new(3));
    println!("inputs (node 0..4): {inputs}");
    println!("faulty node: {faulty}, strategy: tamper-relays");
    println!();

    for (name, kind) in [
        (
            "Algorithm 1 (exponential phases)",
            AlgorithmKind::Algorithm1,
        ),
        (
            "Algorithm 2 (3n rounds, 2f-connected)",
            AlgorithmKind::Algorithm2,
        ),
    ] {
        let mut adversary = Strategy::TamperRelays.into_adversary();
        let (outcome, trace) = runner::run_kind_under(
            kind,
            &Regime::Synchronous,
            &graph,
            f,
            &inputs,
            &faulty,
            &mut adversary,
        );
        println!("{name}:");
        println!("  rounds        = {}", trace.rounds());
        println!("  transmissions = {}", trace.total_transmissions());
        println!("  outcome       = {outcome}");
        println!(
            "  consensus     = {}",
            if outcome.verdict().is_correct() {
                "reached"
            } else {
                "FAILED"
            }
        );
        println!();
    }
}
