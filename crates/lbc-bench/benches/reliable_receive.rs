//! E8 — Section 5.3 tool: reliable receive and fault identification on
//! `2f`-connected graphs.
//!
//! Regenerates the E8 table, benchmarks the report-flood-heavy Algorithm 2
//! run on K5 with two tampering faults (the phase-2 report flood dominates;
//! it runs on the shared flood fabric), and measures both flood engines on
//! the 13-node wheel — a hub-rich topology whose path population stresses
//! the interning arena at n ≥ 12.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use lbc_adversary::Strategy;
use lbc_bench::floodsim;
use lbc_consensus::{runner, Algorithm2Node, AlgorithmKind};
use lbc_graph::generators;
use lbc_model::{CommModel, InputAssignment, NodeId, NodeSet, Regime};
use lbc_sim::Network;

fn bench(c: &mut Criterion) {
    lbc_bench::print_experiment(&lbc_experiments::e8_reliable_receive());

    let graph = generators::complete(5);
    let inputs = InputAssignment::from_bits(5, 0b10101);
    let faulty: NodeSet = [NodeId::new(0), NodeId::new(1)].into_iter().collect();

    let mut group = c.benchmark_group("reliable_receive");
    group.sample_size(10);
    group.bench_function("algorithm2_k5_f2_identification", |b| {
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            runner::run_kind_under(
                AlgorithmKind::Algorithm2,
                &Regime::Synchronous,
                &graph,
                2,
                &inputs,
                &faulty,
                &mut adversary,
            )
        });
    });
    group.bench_function("algorithm2_k5_f2_inspect_roles", |b| {
        b.iter(|| {
            let nodes: Vec<Algorithm2Node> = graph
                .nodes()
                .map(|v| Algorithm2Node::new(inputs.get(v)))
                .collect();
            let mut network = Network::new(
                graph.clone(),
                CommModel::LocalBroadcast,
                faulty.clone(),
                nodes,
            )
            .with_fault_bound(2);
            let mut adversary = Strategy::TamperRelays.into_adversary();
            let _ = network.run_under(
                &Regime::Synchronous,
                &mut adversary,
                Algorithm2Node::round_count(5) + 2,
            );
            graph
                .nodes()
                .filter(|v| !faulty.contains(*v))
                .filter(|v| network.node(*v).is_type_a())
                .count()
        });
    });

    // Reliable receive rides on the phase-1 flood; measure that flood alone
    // on the 13-node wheel (hub + 12-cycle rim) through both engines.
    let w13 = generators::wheel(13);
    group.bench_function("flood_wheel13_ledger", |b| {
        b.iter(|| black_box(floodsim::flood_ledger(&w13, 13)));
    });
    group.bench_function("flood_wheel13_naive", |b| {
        b.iter(|| black_box(floodsim::flood_naive(&w13, 13)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
