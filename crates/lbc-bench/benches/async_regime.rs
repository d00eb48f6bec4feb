//! Execution-regime benchmarks: the asynchronous algorithm across the
//! scheduler grid, plus the regime overhead of the event-scheduled network
//! loop against the lockstep loop on the same workload.
//!
//! Two comparisons matter here:
//!
//! * **scheduler cost** — the same conforming consensus workload
//!   (`C9(1,2)`, `f = 1`, tampered relays) under the synchronous regime and
//!   under each asynchronous scheduler family; the async rows measure the
//!   event-queue fabric (per-`(transmission, receiver)` scheduling, FIFO
//!   clamps, ring buckets) plus the stretched decision horizon.
//! * **engine overhead at lag 1** — `fifo` with `delay = 1` delivers on
//!   exactly the synchronous timetable, so its gap to the `sync` row is the
//!   pure bookkeeping cost of the asynchronous loop.
//! * **partial-synchrony cost** — the same workload under a hold-until-GST
//!   schedule: the pre-GST hold buffer, the burst release at GST and the
//!   stretched `gst + D` decision horizon on top of the fifo fabric.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use lbc_adversary::Strategy;
use lbc_consensus::{runner, AlgorithmKind};
use lbc_graph::generators;
use lbc_model::{AsyncRegime, InputAssignment, NodeId, NodeSet, Regime, SchedulerKind};

fn bench(c: &mut Criterion) {
    let graph = generators::circulant(9, &[1, 2]);
    let inputs = InputAssignment::from_bits(9, 0b011011001);
    let faulty = NodeSet::singleton(NodeId::new(3));

    let run_under = |regime: &Regime| {
        let mut adversary = Strategy::TamperRelays.into_adversary();
        runner::run_kind_under(
            AlgorithmKind::AsyncFlood,
            regime,
            &graph,
            1,
            &inputs,
            &faulty,
            &mut adversary,
        )
    };

    let mut group = c.benchmark_group("async_regime");
    group.sample_size(10);

    group.bench_function("asyncflood_circ9_f1_sync", |b| {
        b.iter(|| black_box(run_under(&Regime::Synchronous)));
    });
    group.bench_function("asyncflood_circ9_f1_fifo_d1", |b| {
        let regime = Regime::Asynchronous(AsyncRegime {
            scheduler: SchedulerKind::Fifo,
            delay: 1,
            seed: 11,
        });
        b.iter(|| black_box(run_under(&regime)));
    });
    for (name, scheduler, delay) in [
        ("asyncflood_circ9_f1_fifo_d3", SchedulerKind::Fifo, 3),
        ("asyncflood_circ9_f1_edge_lag_d3", SchedulerKind::EdgeLag, 3),
        (
            "asyncflood_circ9_f1_delay_max_d3",
            SchedulerKind::DelayMax,
            3,
        ),
    ] {
        group.bench_function(name, |b| {
            let regime = Regime::Asynchronous(AsyncRegime {
                scheduler,
                delay,
                seed: 11,
            });
            b.iter(|| black_box(run_under(&regime)));
        });
    }

    // Partial synchrony on the same instance: a 12-step adversarial prefix
    // holding two senders, then the fifo-3 fabric. The gap to the fifo_d3
    // row is the cost of the timing axis (hold buffer + GST burst + the
    // longer horizon), not of a different scheduler.
    group.bench_function("asyncflood_circ9_f1_psync_g12_h2_fifo_d3", |b| {
        let regime = Regime::PartialSync {
            gst: 12,
            pre: lbc_model::AdversarialSchedule::holding(&[2, 6]),
            post: AsyncRegime {
                scheduler: SchedulerKind::Fifo,
                delay: 3,
                seed: 11,
            },
        };
        b.iter(|| black_box(run_under(&regime)));
    });

    // A larger conforming instance under relay tampering. Every copy the
    // faulty relay forges passes through it, so Definition C.1's
    // disjoint-path check must rule out every forged family before it
    // answers no. That check, not the flood, dominated this row while it
    // backtracked over pairs of resolved paths: 74 of 88 ms per run on a
    // 2-vCPU Xeon. On internal-node bitsets it takes about 2 ms, and the
    // row tracks how the flood and the event fabric scale with n and D.
    let c11 = generators::circulant(11, &[1, 2]);
    let inputs11 = InputAssignment::from_bits(11, 0b10110011010);
    let faulty11 = NodeSet::singleton(NodeId::new(5));
    group.bench_function("asyncflood_circ11_f1_edge_lag_d4", |b| {
        let regime = Regime::Asynchronous(AsyncRegime {
            scheduler: SchedulerKind::EdgeLag,
            delay: 4,
            seed: 11,
        });
        b.iter(|| {
            let mut adversary = Strategy::TamperRelays.into_adversary();
            black_box(runner::run_kind_under(
                AlgorithmKind::AsyncFlood,
                &regime,
                &c11,
                1,
                &inputs11,
                &faulty11,
                &mut adversary,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
