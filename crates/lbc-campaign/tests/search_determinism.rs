//! Determinism guarantees of the per-cell worst-case search.
//!
//! * The canonical search report must be **byte-identical at any worker
//!   count** — same counterexamples, same severity ordering, same frontier
//!   bytes whether cells run serially or on a pool.
//! * **Budget-resume equals one-shot**: running with a small budget,
//!   serializing the canonical report, and resuming it under a larger
//!   budget must produce exactly the report a one-shot run at the larger
//!   budget produces (the mutation schedule is derived per cell and per
//!   round, not from run history).

use lbc_campaign::spec::{FRange, RegimeSpec};
use lbc_campaign::{
    run_search_resumed, CampaignSpec, FaultPolicy, GraphFamily, InputPolicy, SearchSpec, SizeSpec,
    StrategySpec, SweepSpec,
};
use lbc_consensus::AlgorithmKind;
use lbc_model::json::Json;

/// A small two-cell search over a cheap algorithm/graph pair; the C7 f=2
/// cell sits past the degree boundary, so the search has a violation to
/// converge on and minimize.
fn search_spec(budget: usize) -> CampaignSpec {
    CampaignSpec {
        name: "search-determinism".to_string(),
        seed: 2025,
        sweeps: vec![SweepSpec {
            family: GraphFamily::Cycle,
            sizes: SizeSpec::List(vec![7]),
            f: FRange { from: 1, to: 2 },
            algorithms: vec![AlgorithmKind::Algorithm1],
            regimes: RegimeSpec::default_axis(),
            strategies: vec![
                StrategySpec::TamperRelays,
                StrategySpec::Random { seed: None },
            ],
            faults: FaultPolicy::WorstCase,
            inputs: InputPolicy::Alternating,
        }],
        search: Some(SearchSpec {
            budget,
            beam: 3,
            mutations: 4,
            rounds: 3,
        }),
        limits: None,
        serve: None,
    }
}

#[test]
fn search_report_is_byte_identical_across_worker_counts() {
    let spec = search_spec(70);
    let baseline = run_search_resumed(&spec, None, 1)
        .unwrap()
        .to_json()
        .to_string();
    assert!(!baseline.is_empty());
    for workers in [2, 8] {
        let report = run_search_resumed(&spec, None, workers)
            .unwrap()
            .to_json()
            .to_string();
        assert_eq!(
            report, baseline,
            "canonical search report differs at {workers} workers"
        );
    }
}

#[test]
fn budget_resume_equals_one_shot() {
    // The seed round must fit the small budget: resume can only continue
    // the mutation schedule, not recover truncated seeds.
    let small = search_spec(25);
    let first = run_search_resumed(&small, None, 2).unwrap();
    let first_json = Json::parse(&first.to_json().to_string()).unwrap();
    assert!(
        first.cells().iter().any(|cell| cell.exhausted),
        "the small budget must actually stop the search early for this \
         test to exercise resumption"
    );

    let large = search_spec(70);
    let resumed = run_search_resumed(&large, Some(&first_json), 2)
        .unwrap()
        .to_json()
        .to_string();
    let one_shot = run_search_resumed(&large, None, 2)
        .unwrap()
        .to_json()
        .to_string();
    assert_eq!(resumed, one_shot, "resume diverged from the one-shot run");
}

#[test]
fn resume_rejects_reports_from_a_different_campaign() {
    let spec = search_spec(70);
    let report = run_search_resumed(&spec, None, 2).unwrap();
    let json = Json::parse(&report.to_json().to_string()).unwrap();
    let mut foreign = spec.clone();
    foreign.seed = 9999;
    let err = run_search_resumed(&foreign, Some(&json), 2).unwrap_err();
    assert!(err.message.contains("not"), "{}", err.message);
    let mut renamed = spec;
    renamed.name = "someone-else".to_string();
    assert!(run_search_resumed(&renamed, Some(&json), 2).is_err());
}

#[test]
fn resuming_under_the_same_budget_is_idempotent() {
    let spec = search_spec(70);
    let report = run_search_resumed(&spec, None, 2).unwrap();
    let json = Json::parse(&report.to_json().to_string()).unwrap();
    let resumed = run_search_resumed(&spec, Some(&json), 2)
        .unwrap()
        .to_json()
        .to_string();
    assert_eq!(resumed, report.to_json().to_string());
}

#[test]
fn search_finds_and_minimizes_the_boundary_violation() {
    let report = run_search_resumed(&search_spec(70), None, 4).unwrap();
    assert_eq!(report.cells().len(), 2);
    let feasible = &report.cells()[0];
    assert_eq!((feasible.f, feasible.feasible), (1, true));
    let boundary = &report.cells()[1];
    assert_eq!((boundary.f, boundary.feasible), (2, false));
    assert!(boundary.best().severity.is_violation());
    let counterexample = boundary
        .counterexample
        .as_ref()
        .expect("boundary violation is minimized");
    assert!(counterexample.scored.severity.is_violation());
    // The replay spec reproduces every violation under the grid executor.
    let replay = report.counterexample_spec().expect("replay spec exists");
    let replayed = lbc_campaign::run_campaign(&replay, 2).unwrap();
    assert!(!replayed.all_correct());
}

/// An asynchronous search cell: the sub-threshold cycle under the async
/// algorithm, searched over the joint strategy × schedule space.
fn async_search_spec(budget: usize) -> CampaignSpec {
    CampaignSpec {
        name: "async-search-determinism".to_string(),
        seed: 31,
        sweeps: vec![SweepSpec {
            family: GraphFamily::Cycle,
            sizes: SizeSpec::List(vec![5]),
            f: FRange::exactly(1),
            algorithms: vec![AlgorithmKind::AsyncFlood],
            regimes: vec![RegimeSpec::Async {
                scheduler: lbc_model::SchedulerKind::EdgeLag,
                delay: 3,
                seed: None,
            }],
            strategies: vec![StrategySpec::TamperRelays],
            faults: FaultPolicy::WorstCase,
            inputs: InputPolicy::Alternating,
        }],
        search: Some(SearchSpec {
            budget,
            beam: 3,
            mutations: 4,
            rounds: 2,
        }),
        limits: None,
        serve: None,
    }
}

#[test]
fn async_cells_search_deterministically_and_resume() {
    let spec = async_search_spec(60);
    let baseline = run_search_resumed(&spec, None, 1)
        .unwrap()
        .to_json()
        .to_string();
    for workers in [2, 8] {
        assert_eq!(
            run_search_resumed(&spec, None, workers)
                .unwrap()
                .to_json()
                .to_string(),
            baseline,
            "async search report differs at {workers} workers"
        );
    }
    // Resume under the same budget is idempotent for async cells too
    // (their resume key includes the regime label).
    let json = Json::parse(&baseline).unwrap();
    assert_eq!(
        run_search_resumed(&spec, Some(&json), 2)
            .unwrap()
            .to_json()
            .to_string(),
        baseline
    );
}

#[test]
fn async_search_finds_the_sub_threshold_violation_and_replays_it() {
    let report = run_search_resumed(&async_search_spec(60), None, 4).unwrap();
    assert_eq!(report.cells().len(), 1);
    let cell = &report.cells()[0];
    assert!(!cell.feasible, "the cycle is below the async threshold");
    assert_eq!(cell.regime.label(), "async-edge-lag-d3");
    assert!(
        cell.best().severity.is_violation(),
        "the search must find the async boundary violation: {:?}",
        cell.best().severity
    );
    let counterexample = cell.counterexample.as_ref().expect("violation minimized");
    let shrunk = &counterexample.scored.candidate;
    assert!(
        shrunk.schedule.is_some(),
        "async candidates carry their schedule"
    );
    // The replay fragment pins the minimized schedule (seed and all) and
    // re-violates under the grid executor.
    let replay = report.counterexample_spec().expect("replay spec exists");
    assert!(matches!(
        replay.sweeps[0].regimes[0],
        RegimeSpec::Async { seed: Some(_), .. }
    ));
    let replayed = lbc_campaign::run_campaign(&replay, 2).unwrap();
    assert!(!replayed.all_correct(), "replay fragment must re-violate");
}

#[test]
fn regime_axis_entries_differing_only_in_seed_are_distinct_cells() {
    // Two explicit schedule seeds on the same scheduler/delay share a
    // seedless label; the search must keep them as separate cells (the
    // label is a display name, the cell key is the full regime spec).
    let mut spec = async_search_spec(30);
    spec.sweeps[0].regimes = vec![
        RegimeSpec::Async {
            scheduler: lbc_model::SchedulerKind::EdgeLag,
            delay: 3,
            seed: Some(1),
        },
        RegimeSpec::Async {
            scheduler: lbc_model::SchedulerKind::EdgeLag,
            delay: 3,
            seed: Some(2),
        },
    ];
    spec.search = Some(SearchSpec {
        budget: 20,
        beam: 2,
        mutations: 2,
        rounds: 0,
    });
    let report = run_search_resumed(&spec, None, 2).unwrap();
    assert_eq!(
        report.cells().len(),
        2,
        "explicit schedule seeds must not merge into one cell"
    );
    // Resume still matches both cells (keys carry the full spec).
    let json = Json::parse(&report.to_json().to_string()).unwrap();
    assert_eq!(
        run_search_resumed(&spec, Some(&json), 2)
            .unwrap()
            .to_json()
            .to_string(),
        report.to_json().to_string()
    );
}
