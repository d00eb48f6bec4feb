//! Repeated-consensus service guarantees.
//!
//! * The canonical serve report must be **byte-identical at 1, 2 and 8
//!   workers** — lanes are the parallelism unit and contribute no
//!   ordering or randomness.
//! * A long chain must keep the epoch-scoped ledger occupancy flat: at
//!   most two live sessions per tag (current + draining predecessor) and
//!   a bounded allocation high-water mark, over hundreds of instances.
//! * Chaining must not change *decisions*: every instance of a lane run
//!   over a partial-synchrony regime must decide exactly as the same
//!   configuration replayed as an independent one-shot run.

use lbc_adversary::Strategy;
use lbc_campaign::{
    run_serve_opts, CampaignSpec, GraphFamily, InputPolicy, RegimeSpec, ServeLaneSpec, ServeSpec,
    StrategySpec,
};
use lbc_consensus::{runner, AlgorithmKind};
use lbc_graph::generators;
use lbc_model::{AdversarialSchedule, InputAssignment, NodeId, NodeSet, SchedulerKind};

fn serve_spec(name: &str, seed: u64, instances: usize, lanes: Vec<ServeLaneSpec>) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        seed,
        sweeps: Vec::new(),
        search: None,
        limits: None,
        serve: Some(ServeSpec { instances, lanes }),
    }
}

/// The psync lane the one-shot comparison replays: every knob is either
/// explicit or seed-independent, so the exact per-instance configuration
/// can be rebuilt outside the serve executor.
fn psync_lane() -> ServeLaneSpec {
    ServeLaneSpec {
        family: GraphFamily::Fig1b,
        n: 9,
        f: 1,
        algorithm: AlgorithmKind::AsyncFlood,
        regime: RegimeSpec::PartialSync {
            gst: 4,
            hold: AdversarialSchedule::holding(&[2]),
            scheduler: SchedulerKind::Fifo,
            delay: 1,
            seed: Some(5),
        },
        strategy: StrategySpec::Silent,
        faulty: vec![3],
        inputs: InputPolicy::Exhaustive,
    }
}

#[test]
fn serve_report_is_byte_identical_across_worker_counts() {
    let spec = serve_spec(
        "serve-workers",
        41,
        30,
        vec![
            ServeLaneSpec {
                family: GraphFamily::Fig1b,
                n: 9,
                f: 1,
                algorithm: AlgorithmKind::AsyncFlood,
                regime: RegimeSpec::Async {
                    scheduler: SchedulerKind::EdgeLag,
                    delay: 2,
                    seed: None,
                },
                strategy: StrategySpec::Silent,
                faulty: vec![4],
                inputs: InputPolicy::Random { count: 16 },
            },
            ServeLaneSpec {
                family: GraphFamily::Fig1a,
                n: 5,
                f: 1,
                algorithm: AlgorithmKind::Algorithm1,
                regime: RegimeSpec::Sync,
                strategy: StrategySpec::CrashAfter(3),
                faulty: vec![2],
                inputs: InputPolicy::Random { count: 8 },
            },
            psync_lane(),
        ],
    );

    let canonical = run_serve_opts(&spec, 1, None)
        .expect("serve")
        .to_json()
        .to_string();
    for workers in [2, 8] {
        let report = run_serve_opts(&spec, workers, None).expect("serve");
        assert!(report.all_correct(), "workers={workers} not all-correct");
        assert_eq!(
            report.to_json().to_string(),
            canonical,
            "canonical serve report differs at {workers} workers"
        );
    }
}

#[test]
fn chain_channel_occupancy_stays_bounded_over_500_instances() {
    let graph = generators::cycle(5);
    let faulty = NodeSet::singleton(NodeId::new(2));
    let mut adversary = Strategy::Silent.into_adversary();
    let (results, stats) = runner::run_chain_under(
        AlgorithmKind::Algorithm1,
        &lbc_model::Regime::Synchronous,
        &graph,
        1,
        &faulty,
        500,
        |k| InputAssignment::from_bits(5, k % 32),
        &mut adversary,
    );

    assert_eq!(results.len(), 500);
    for (k, result) in results.iter().enumerate() {
        assert!(
            result.outcome.verdict().is_correct(),
            "instance {k} incorrect"
        );
    }
    // The occupancy walls the serve gate enforces: never more than the
    // current session plus its draining predecessor live per tag, and an
    // allocation high-water mark that does not grow with the chain length.
    assert!(
        stats.max_live_per_tag <= 2,
        "{} live sessions per tag",
        stats.max_live_per_tag
    );
    assert!(
        stats.max_allocated_channels <= 3 * stats.live_tags.max(1),
        "{} channels allocated across {} tags after 500 instances",
        stats.max_allocated_channels,
        stats.live_tags
    );
}

#[test]
fn psync_serve_lane_decides_like_500_one_shot_runs() {
    let lane = psync_lane();
    let spec = serve_spec("serve-psync", 97, 500, vec![lane.clone()]);
    let report = run_serve_opts(&spec, 2, None).expect("serve");
    let records = &report.lanes()[0].instances;
    assert_eq!(records.len(), 500);

    // Rebuild the lane's exact per-instance configuration: the regime seed
    // is explicit, `silent` is stateless and `exhaustive` inputs ignore
    // the derived seed — the lane seed influences nothing.
    let graph = GraphFamily::Fig1b.build(9);
    let regime = lane.regime.materialize(0);
    let faulty = NodeSet::singleton(NodeId::new(3));
    let input_sets = lane.inputs.assignments(9, 0).expect("inputs");

    for (k, record) in records.iter().enumerate() {
        let mut adversary = Strategy::Silent.into_adversary();
        let (outcome, _) = runner::run_kind_under(
            AlgorithmKind::AsyncFlood,
            &regime,
            &graph,
            1,
            &input_sets[k % input_sets.len()],
            &faulty,
            &mut adversary,
        );
        assert_eq!(
            record.verdict,
            outcome.verdict(),
            "instance {k}: chained verdict differs from the one-shot run"
        );
        assert_eq!(
            record.agreed,
            outcome.agreed_value(),
            "instance {k}: chained decision differs from the one-shot run"
        );
        assert!(record.verdict.is_correct(), "instance {k} incorrect");
    }
}
