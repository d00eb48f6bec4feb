//! E6 — round/message complexity: Algorithm 1 (exponential phases) versus
//! Algorithm 2 (3n rounds) versus the point-to-point baseline.
//!
//! Regenerates the E6 table and benchmarks all three protocols on graphs
//! where each applies, sweeping the cycle length for the linear-round
//! algorithm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lbc_adversary::Strategy;
use lbc_consensus::{runner, AlgorithmKind};
use lbc_graph::generators;
use lbc_model::{InputAssignment, NodeId, NodeSet, Regime};

fn bench(c: &mut Criterion) {
    lbc_bench::print_experiment(&lbc_experiments::e6_round_complexity());

    let faulty = NodeSet::singleton(NodeId::new(1));
    let mut group = c.benchmark_group("alg1_vs_alg2");
    group.sample_size(10);

    for n in [5usize, 7, 9] {
        let graph = generators::cycle(n);
        let inputs = InputAssignment::from_bits(n, 0b010101010 & ((1 << n) - 1));
        group.bench_with_input(BenchmarkId::new("algorithm1_cycle_f1", n), &n, |b, _| {
            b.iter(|| {
                let mut adversary = Strategy::TamperRelays.into_adversary();
                runner::run_kind_under(
                    AlgorithmKind::Algorithm1,
                    &Regime::Synchronous,
                    &graph,
                    1,
                    &inputs,
                    &faulty,
                    &mut adversary,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("algorithm2_cycle_f1", n), &n, |b, _| {
            b.iter(|| {
                let mut adversary = Strategy::TamperRelays.into_adversary();
                runner::run_kind_under(
                    AlgorithmKind::Algorithm2,
                    &Regime::Synchronous,
                    &graph,
                    1,
                    &inputs,
                    &faulty,
                    &mut adversary,
                )
            });
        });
    }

    // The point-to-point baseline needs n >= 3f+1 and 2f+1 connectivity.
    for n in [4usize, 5, 6] {
        let graph = generators::complete(n);
        let inputs = InputAssignment::from_bits(n, 0b010101 & ((1 << n) - 1));
        group.bench_with_input(BenchmarkId::new("p2p_baseline_kn_f1", n), &n, |b, _| {
            b.iter(|| {
                let mut adversary = Strategy::Equivocate.into_adversary();
                runner::run_kind_under(
                    AlgorithmKind::P2pBaseline,
                    &Regime::Synchronous,
                    &graph,
                    1,
                    &inputs,
                    &faulty,
                    &mut adversary,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
