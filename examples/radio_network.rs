//! A wireless-style scenario: the local broadcast model is the natural model
//! for radio networks, where every transmission is overheard by all nodes in
//! range. This example runs the efficient algorithm on circulant "ring of
//! radios" topologies with two Byzantine radios.
//!
//! Run with: `cargo run --release --example radio_network`

use local_broadcast_consensus::prelude::*;

fn main() {
    // Radios arranged on a ring, each hearing its two nearest neighbors on
    // both sides (the octahedron C6(1,2) and the paper's C9(1,2) class).
    let topologies = [
        (
            "C6(1,2) - 6 radios, range 2",
            generators::circulant(6, &[1, 2]),
            2usize,
        ),
        (
            "K5 - 5 radios, all in range",
            generators::complete(5),
            2usize,
        ),
    ];

    for (name, graph, f) in topologies {
        let n = graph.node_count();
        println!("== {name} ==");
        println!(
            "  min degree = {}, connectivity = {}, feasible for f={f}: {}",
            graph.min_degree(),
            connectivity::vertex_connectivity(&graph),
            conditions::local_broadcast_feasible(&graph, f)
        );

        // Two Byzantine radios equivocate (attempt to, at least: under local
        // broadcast every neighbor overhears both copies).
        let faulty: NodeSet = [NodeId::new(0), NodeId::new(2)].into_iter().collect();
        let inputs = InputAssignment::from_bits(n, 0b011010 & ((1 << n) - 1));
        let mut adversary = Strategy::Equivocate.into_adversary();
        let (outcome, trace) = runner::run_kind_under(
            AlgorithmKind::Algorithm2,
            &Regime::Synchronous,
            &graph,
            f,
            &inputs,
            &faulty,
            &mut adversary,
        );
        println!("  inputs  = {inputs}, faulty = {faulty}");
        println!(
            "  Algorithm 2: rounds = {}, transmissions = {}, agreement on {:?}",
            trace.rounds(),
            trace.total_transmissions(),
            outcome.agreed_value()
        );
        println!(
            "  consensus {}",
            if outcome.verdict().is_correct() {
                "reached"
            } else {
                "FAILED"
            }
        );
        println!();
    }

    // The paper's Figure 1(b)-class graph: conditions check only (Algorithm 1
    // on 9 nodes with f = 2 runs 46 phases — try it in release mode if you
    // are curious).
    let c9 = generators::paper_fig1b();
    println!("== C9(1,2) - 9 radios, range 2 (Figure 1b class) ==");
    println!(
        "  min degree = {}, connectivity = {}, feasible for f=2: {}",
        c9.min_degree(),
        connectivity::vertex_connectivity(&c9),
        conditions::local_broadcast_feasible(&c9, 2)
    );
    println!(
        "  point-to-point would tolerate only f = {}",
        conditions::max_f_point_to_point(&c9)
    );
}
