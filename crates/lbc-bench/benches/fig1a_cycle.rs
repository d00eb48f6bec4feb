//! E1 — Figure 1(a): consensus on the 5-cycle with one Byzantine node.
//!
//! Regenerates the E1 table, benchmarks Algorithm 1 and Algorithm 2 on the
//! 5-cycle against a tampering fault, and measures both flood engines at
//! n = 13 — the `naive` / `ledger` pair is what the bench gate derives its
//! speedup ratio from.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use lbc_adversary::Strategy;
use lbc_bench::floodsim;
use lbc_consensus::runner;
use lbc_graph::generators;
use lbc_model::{InputAssignment, NodeId, NodeSet};

fn bench(c: &mut Criterion) {
    lbc_bench::print_experiment(&lbc_experiments::e1_fig1a_cycle());

    let graph = generators::paper_fig1a();
    let inputs = InputAssignment::from_bits(5, 0b01101);
    let faulty = NodeSet::singleton(NodeId::new(3));

    let mut group = c.benchmark_group("fig1a_cycle");
    group.sample_size(10);
    group.bench_function("algorithm1_c5_f1_tamper", |b| {
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            runner::run_algorithm1(&graph, 1, &inputs, &faulty, &mut adversary)
        });
    });
    group.bench_function("algorithm2_c5_f1_tamper", |b| {
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            runner::run_algorithm2(&graph, 1, &inputs, &faulty, &mut adversary)
        });
    });

    // Algorithm 1 end-to-end at n = 13 (14 phases × 13 flooding rounds).
    let c13 = generators::cycle(13);
    let inputs13 = InputAssignment::from_bits(13, 0b1010101010101);
    let faulty13 = NodeSet::singleton(NodeId::new(3));
    group.bench_function("algorithm1_c13_f1_tamper", |b| {
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            runner::run_algorithm1(&c13, 1, &inputs13, &faulty13, &mut adversary)
        });
    });

    // The flood engine alone — ledger (production) vs naive reference —
    // all 13 nodes flooding.
    group.bench_function("flood_c13_ledger", |b| {
        b.iter(|| black_box(floodsim::flood_ledger(&c13, 13)));
    });
    group.bench_function("flood_c13_naive", |b| {
        b.iter(|| black_box(floodsim::flood_naive(&c13, 13)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
