//! The committed campaign specs under `examples/campaigns/` that re-express
//! experiments and boundary claims, run through the `lbc-campaign` engine.
//!
//! Each test loads the committed file itself, so the spec a user runs with
//! `lbc campaign` / `lbc search` is the spec under test. Debug builds make
//! the full boundary specs slow, so some tests trim a copy first; the CI
//! smoke scripts run the complete files against the release binary.

use lbc_campaign::{
    run_campaign, run_search_resumed, CampaignSpec, InputPolicy, SearchSpec, StrategySpec,
};
use lbc_consensus::{Algorithm1Node, Algorithm2Node, AlgorithmKind};

fn committed(text: &str) -> CampaignSpec {
    CampaignSpec::from_json_text(text).expect("committed spec parses")
}

/// The acceptance gate of the execution-regime axis, trimmed for debug
/// builds (the CI async smoke runs the full committed spec against the
/// release binary): above the `(2f + 1)`-connectivity threshold the
/// async algorithm is correct under every scheduler; on the same
/// sub-threshold cycle where synchronous Algorithm 1 is correct, the
/// async regime reproducibly breaks agreement.
#[test]
fn async_boundary_separates_the_regimes() {
    let mut spec = committed(include_str!(
        "../../../examples/campaigns/async_boundary.json"
    ));
    // Trim: one strategy and one input per conforming cell, a fixed
    // input pattern for the cycle sweeps.
    spec.sweeps[0].strategies = vec![StrategySpec::TamperRelays];
    spec.sweeps[0].inputs = InputPolicy::Bits(0b010110011);
    spec.sweeps[1].inputs = InputPolicy::Bits(0b11000);
    spec.sweeps[2].inputs = InputPolicy::Bits(0b11000);
    let report = run_campaign(&spec, 4).expect("async boundary spec expands");
    let mut conforming = 0;
    let mut sync_control = 0;
    let mut sub_threshold_violations = 0;
    for record in report.records() {
        match (record.family.as_str(), record.algorithm) {
            ("circulant", AlgorithmKind::AsyncFlood) => {
                conforming += 1;
                assert!(record.feasible, "C9(1,2) is above the async threshold");
                assert!(
                    record.verdict.is_correct(),
                    "conforming cell violated under [{}]: faulty={} inputs={}",
                    record.regime,
                    record.faulty,
                    record.inputs
                );
            }
            ("cycle", AlgorithmKind::Algorithm1) => {
                sync_control += 1;
                assert!(
                    record.verdict.is_correct(),
                    "the sync control must stay correct on the cycle"
                );
            }
            ("cycle", AlgorithmKind::AsyncFlood) => {
                assert!(!record.feasible, "the cycle is below the async threshold");
                sub_threshold_violations += usize::from(!record.verdict.is_correct());
            }
            other => panic!("unexpected cell {other:?}"),
        }
    }
    assert!(conforming > 0 && sync_control > 0);
    assert!(
        sub_threshold_violations > 0,
        "the sub-threshold cycle must exhibit an async violation"
    );
}

/// The acceptance gate of the partial-synchrony axis, trimmed for debug
/// builds (the CI gst smoke runs the full committed spec against the
/// release binary): the `sleeper(12)` cycle cell is correct under the
/// synchronous regime AND under the plain fifo-2 asynchronous regime,
/// but violated once a hold-until-GST schedule stretches the decision
/// horizon past the sleeper's wake-up; the above-threshold circulant
/// control stays correct under every GST attack.
#[test]
fn gst_boundary_separates_the_regimes() {
    let mut spec = committed(include_str!(
        "../../../examples/campaigns/gst_boundary.json"
    ));
    // Trim the control sweep: one scheduler-aware strategy, one fixed
    // input pattern (the cycle sweep is already exhaustive and fast).
    spec.sweeps[1].strategies = vec![StrategySpec::StraddleTamper];
    spec.sweeps[1].inputs = InputPolicy::Bits(0b010110011);
    let report = run_campaign(&spec, 4).expect("gst boundary spec expands");
    let mut by_regime: std::collections::BTreeMap<String, (usize, usize)> =
        std::collections::BTreeMap::new();
    let mut control = 0;
    for record in report.records() {
        match record.family.as_str() {
            "cycle" => {
                assert!(!record.feasible, "the cycle is below the async threshold");
                let entry = by_regime.entry(record.regime.clone()).or_default();
                entry.0 += 1;
                entry.1 += usize::from(!record.verdict.is_correct());
            }
            "circulant" => {
                control += 1;
                assert!(record.feasible, "C9(1,2) is above the async threshold");
                assert!(
                    record.verdict.is_correct(),
                    "above-threshold cell violated under [{}]: faulty={} inputs={}",
                    record.regime,
                    record.faulty,
                    record.inputs
                );
            }
            other => panic!("unexpected family {other}"),
        }
    }
    assert!(control > 0);
    assert_eq!(by_regime.len(), 3, "three regimes on the cycle cell");
    for (regime, (total, violations)) in &by_regime {
        assert_eq!(*total, 160, "5 placements x 32 input patterns");
        if regime.starts_with("psync-") {
            assert!(
                *violations > 0,
                "the hold-until-GST schedule must break the sleeper"
            );
        } else {
            assert_eq!(
                *violations, 0,
                "sleeper(12) must stay correct under [{regime}]"
            );
        }
    }
}

/// The acceptance gate of the adversary search: a grid that *omits* the
/// omission fault must have it rediscovered, minimized back to `silent`,
/// and emitted as a replay fragment that re-violates under the grid
/// executor.
///
/// The test runs the C13 × Algorithm 2 sweep alone with a trimmed budget
/// (debug builds make the full boundary spec minutes-slow); the CI search
/// smoke runs the complete committed spec against the release binary.
#[test]
fn boundary_search_rediscovers_the_c13_omission_gap() {
    let mut spec = committed(include_str!(
        "../../../examples/campaigns/search_boundary.json"
    ));
    spec.sweeps.truncate(1);
    spec.search = Some(SearchSpec {
        budget: 40,
        beam: 3,
        mutations: 4,
        rounds: 1,
    });
    let report = run_search_resumed(&spec, None, 4).expect("search runs");
    let c13 = report
        .cells()
        .iter()
        .find(|cell| cell.graph == "C13" && cell.algorithm == AlgorithmKind::Algorithm2)
        .expect("the C13/alg2 cell exists");
    assert!(
        c13.best().severity.is_violation(),
        "search failed to rediscover the Appendix C omission gap"
    );
    assert!(!c13.best().severity.verdict().agreement);
    let counterexample = c13.counterexample.as_ref().expect("violation is minimized");
    assert_eq!(
        counterexample.scored.candidate.strategy,
        lbc_adversary::Strategy::Silent,
        "the minimized strategy must be the omission fault itself"
    );
    assert_eq!(counterexample.scored.candidate.faulty.len(), 1);
    let replay = report.counterexample_spec().expect("replay spec exists");
    let replayed = run_campaign(&replay, 4).expect("replay spec expands");
    assert!(
        !replayed.all_correct(),
        "the minimized counterexamples must re-violate when replayed"
    );
}

/// E1 as a spec: Figure 1(a), every placement × strategy on the 5-cycle.
#[test]
fn e1_campaign_covers_the_grid_and_is_all_correct() {
    let spec = committed(include_str!("../../../examples/campaigns/e1_fig1a.json"));
    let report = run_campaign(&spec, 4).expect("E1 spec expands");
    // 3 strategies × 5 placements (alg1) + 2 strategies × 5 (alg2).
    assert_eq!(report.records().len(), 25);
    assert!(report
        .records()
        .iter()
        .all(|record| record.verdict.is_correct()));
    // Same coverage as the hardcoded E1 (which also emits 25 rows).
    assert_eq!(lbc_experiments::e1_fig1a_cycle().rows.len(), 25);
}

/// E6 as a spec: Theorem 5.6's round-complexity gap between Algorithm 1
/// and Algorithm 2.
#[test]
fn e6_campaign_reproduces_the_round_complexity_gap() {
    let spec = committed(include_str!(
        "../../../examples/campaigns/e6_complexity.json"
    ));
    let report = run_campaign(&spec, 4).expect("E6 spec expands");
    for record in report.records() {
        let n = match record.graph.as_str() {
            "C5" | "K5" => 5,
            "C7" => 7,
            other => panic!("unexpected graph {other}"),
        };
        let f = if record.graph == "K5" { 2 } else { 1 };
        let measured = record.stats.rounds;
        match record.algorithm {
            AlgorithmKind::Algorithm1 => assert_eq!(measured, Algorithm1Node::round_count(n, f)),
            AlgorithmKind::Algorithm2 => assert!(measured <= Algorithm2Node::round_count(n)),
            other => panic!("unexpected algorithm {other:?}"),
        }
    }
}
