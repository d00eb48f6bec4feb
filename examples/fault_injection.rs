//! An adversary-strategy tour: run Algorithm 1 on the 5-cycle against every
//! built-in Byzantine strategy and every fault placement, and tabulate the
//! results (they must all reach consensus — the cycle satisfies the f = 1
//! conditions).
//!
//! Run with: `cargo run --release --example fault_injection`

use local_broadcast_consensus::prelude::*;

fn main() {
    let graph = generators::paper_fig1a();
    let f = 1;
    let inputs = InputAssignment::from_bits(5, 0b10011);

    println!("Algorithm 1 on the 5-cycle, f = 1, inputs = {inputs}");
    println!();
    println!(
        "{:<10} {:<16} {:<10} {:<8} {:<14}",
        "faulty", "strategy", "correct", "rounds", "transmissions"
    );

    let mut all_correct = true;
    for faulty_node in 0..5 {
        let faulty = NodeSet::singleton(NodeId::new(faulty_node));
        for strategy in Strategy::all(2024) {
            let mut adversary = strategy.clone().into_adversary();
            let (outcome, trace) = runner::run_kind_under(
                AlgorithmKind::Algorithm1,
                &Regime::Synchronous,
                &graph,
                f,
                &inputs,
                &faulty,
                &mut adversary,
            );
            let ok = outcome.verdict().is_correct();
            all_correct &= ok;
            println!(
                "{:<10} {:<16} {:<10} {:<8} {:<14}",
                faulty.to_string(),
                strategy.name(),
                if ok { "yes" } else { "NO" },
                trace.rounds(),
                trace.total_transmissions()
            );
        }
    }
    println!();
    println!(
        "all executions reached consensus: {}",
        if all_correct { "yes" } else { "NO" }
    );
}
