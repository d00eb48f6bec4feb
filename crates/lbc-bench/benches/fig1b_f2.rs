//! E2 — Figure 1(b) class: f = 2 graphs (degree ≥ 4, connectivity ≥ 4).
//!
//! Regenerates the E2 table and benchmarks both algorithms on K5 and the
//! octahedron C6(1,2) with two tampering faults.

use criterion::{criterion_group, criterion_main, Criterion};

use lbc_adversary::Strategy;
use lbc_consensus::{runner, AlgorithmKind};
use lbc_graph::generators;
use lbc_model::{InputAssignment, NodeId, NodeSet, Regime};

fn bench(c: &mut Criterion) {
    lbc_bench::print_experiment(&lbc_experiments::e2_fig1b_f2());

    let faulty: NodeSet = [NodeId::new(0), NodeId::new(2)].into_iter().collect();
    let mut group = c.benchmark_group("fig1b_f2");
    group.sample_size(10);

    let k5 = generators::complete(5);
    let inputs5 = InputAssignment::from_bits(5, 0b01011);
    group.bench_function("algorithm1_k5_f2_tamper", |b| {
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            runner::run_kind_under(
                AlgorithmKind::Algorithm1,
                &Regime::Synchronous,
                &k5,
                2,
                &inputs5,
                &faulty,
                &mut adversary,
            )
        });
    });
    group.bench_function("algorithm2_k5_f2_tamper", |b| {
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            runner::run_kind_under(
                AlgorithmKind::Algorithm2,
                &Regime::Synchronous,
                &k5,
                2,
                &inputs5,
                &faulty,
                &mut adversary,
            )
        });
    });

    let c6 = generators::circulant(6, &[1, 2]);
    let inputs6 = InputAssignment::from_bits(6, 0b010110);
    group.bench_function("algorithm2_c6_12_f2_tamper", |b| {
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            runner::run_kind_under(
                AlgorithmKind::Algorithm2,
                &Regime::Synchronous,
                &c6,
                2,
                &inputs6,
                &faulty,
                &mut adversary,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
