//! Telemetry determinism and compatibility guarantees.
//!
//! * With telemetry **enabled**, the report JSON — including the embedded
//!   `"telemetry"` section — must stay byte-identical across worker counts;
//!   wall clock is confined to the telemetry CSV and the rendered summary.
//! * With telemetry **disabled** (the default), reports must carry no
//!   `"telemetry"` key and diff byte-clean against the pre-telemetry
//!   executor paths — enabling the observer machinery must be unobservable
//!   when it is off.
//! * Replaying a cell through the event recorder must be deterministic and
//!   must agree with the campaign's record for that cell.
//! * Old reports without the adversary-visible summary fields must still
//!   parse (missing fields default to 0) and diff clean.

use proptest::prelude::*;

use lbc_campaign::spec::{FRange, RegimeSpec};
use lbc_campaign::{
    diff_report_texts, replay_scenario, run_campaign, run_scenarios_resumable, CampaignReport,
    CampaignSpec, ExecOptions, FaultPolicy, GraphFamily, InputPolicy, SizeSpec, StrategySpec,
    SweepSpec,
};
use lbc_consensus::AlgorithmKind;
use lbc_model::json::{FromJson, Json, ToJson};
use lbc_sim::TraceSummary;

/// A small campaign that exercises every event source telemetry taps:
/// synchronous rounds with tampering, an async scheduler, and a
/// partial-synchrony hold-then-burst regime.
fn telemetry_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "observability".to_string(),
        seed,
        sweeps: vec![
            SweepSpec {
                family: GraphFamily::Cycle,
                sizes: SizeSpec::List(vec![5]),
                f: FRange::exactly(1),
                algorithms: vec![AlgorithmKind::Algorithm1],
                regimes: RegimeSpec::default_axis(),
                strategies: vec![StrategySpec::TamperRelays, StrategySpec::Equivocate],
                faults: FaultPolicy::Exhaustive,
                inputs: InputPolicy::Alternating,
            },
            SweepSpec {
                family: GraphFamily::Complete,
                sizes: SizeSpec::List(vec![5]),
                f: FRange::exactly(1),
                algorithms: vec![AlgorithmKind::AsyncFlood],
                regimes: vec![
                    RegimeSpec::Async {
                        scheduler: lbc_model::SchedulerKind::EdgeLag,
                        delay: 3,
                        seed: None,
                    },
                    RegimeSpec::PartialSync {
                        gst: 6,
                        hold: lbc_model::AdversarialSchedule::holding(&[1, 3]),
                        scheduler: lbc_model::SchedulerKind::Fifo,
                        delay: 2,
                        seed: None,
                    },
                ],
                strategies: vec![StrategySpec::TamperRelays, StrategySpec::Silent],
                faults: FaultPolicy::Exhaustive,
                inputs: InputPolicy::Alternating,
            },
        ],
        search: None,
        limits: None,
        serve: None,
    }
}

fn opts(workers: usize, telemetry: bool) -> ExecOptions {
    ExecOptions {
        telemetry,
        ..ExecOptions::new(workers)
    }
}

/// Expands `spec` and runs it under `options`, as `lbc campaign` does.
fn run_with(spec: &CampaignSpec, options: &ExecOptions) -> CampaignReport {
    let (scenarios, notes) = spec.expand_noted().unwrap();
    run_scenarios_resumable(spec, &scenarios, notes, options).unwrap()
}

#[test]
fn telemetry_report_is_byte_identical_across_worker_counts() {
    let spec = telemetry_spec(2026);
    let baseline = run_with(&spec, &opts(1, true)).to_json().to_string();
    assert!(
        baseline.contains("\"telemetry\""),
        "enabled run must embed the telemetry section"
    );
    for workers in [2, 8] {
        let report = run_with(&spec, &opts(workers, true)).to_json().to_string();
        assert_eq!(
            report, baseline,
            "telemetry-bearing report differs at {workers} workers"
        );
    }
}

#[test]
fn telemetry_csv_is_deterministic_except_wall_column() {
    let spec = telemetry_spec(2026);
    let strip_wall = |csv: &str| -> Vec<String> {
        csv.lines()
            .map(|line| line.rsplit_once(',').unwrap().0.to_string())
            .collect()
    };
    let csv1 = run_with(&spec, &opts(1, true))
        .telemetry()
        .unwrap()
        .to_csv();
    let csv8 = run_with(&spec, &opts(8, true))
        .telemetry()
        .unwrap()
        .to_csv();
    assert_eq!(strip_wall(&csv1), strip_wall(&csv8));
    // Cells appear in expansion order regardless of pool interleaving.
    let indices: Vec<&str> = csv8
        .lines()
        .skip(1)
        .map(|line| line.split_once(',').unwrap().0)
        .collect();
    let sorted = {
        let mut sorted: Vec<usize> = indices.iter().map(|s| s.parse().unwrap()).collect();
        sorted.sort_unstable();
        sorted
    };
    assert_eq!(
        indices,
        sorted.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
}

/// Disabled-observer runs must produce reports byte-identical to the
/// pre-telemetry executor surface: no `"telemetry"` key, and the exact
/// bytes of the plain `run_campaign` path, whether the executor expands the
/// spec or is handed the expansion.
#[test]
fn disabled_observer_reports_match_the_plain_paths() {
    let spec = telemetry_spec(7);
    let plain = run_campaign(&spec, 2).unwrap().to_json().to_string();
    assert!(!plain.contains("\"telemetry\""));
    let expanded = run_with(&spec, &opts(2, false)).to_json().to_string();
    assert_eq!(plain, expanded);
}

/// The telemetry section only adds a key: stripping `"telemetry"` from an
/// enabled report yields the disabled report byte-for-byte, so canonical
/// records are untouched by observation.
#[test]
fn telemetry_section_is_purely_additive() {
    let spec = telemetry_spec(11);
    let plain = run_campaign(&spec, 2).unwrap().to_json().to_string();
    let observed = run_with(&spec, &opts(2, true)).to_json();
    let Json::Obj(fields) = observed else {
        panic!("report JSON must be an object");
    };
    let stripped = Json::Obj(
        fields
            .into_iter()
            .filter(|(key, _)| key != "telemetry")
            .collect(),
    );
    assert_eq!(stripped.to_string(), plain);
}

/// Replaying cells through the event recorder is deterministic (same event
/// stream every time) and agrees with the campaign's own record — the
/// recorder path and the campaign path must be the same execution.
#[test]
fn replay_event_streams_are_deterministic_and_match_campaign_records() {
    let spec = telemetry_spec(2026);
    let scenarios = spec.expand().unwrap();
    let report = run_campaign(&spec, 4).unwrap();
    for scenario in scenarios.iter().step_by(5) {
        let first = replay_scenario(scenario);
        let second = replay_scenario(scenario);
        assert_eq!(
            first.events, second.events,
            "event stream differs between replays of cell {}",
            scenario.index
        );
        assert_eq!(
            first.record.to_canonical_json().to_string(),
            report.records()[scenario.index]
                .to_canonical_json()
                .to_string(),
            "replay record diverges from campaign record for cell {}",
            scenario.index
        );
    }
}

// ---------------------------------------------------------------------------
// old-report compatibility: the adversary-visible fields default to 0
// ---------------------------------------------------------------------------

/// Recursively drops the adversary-visible keys of `TraceSummary`,
/// simulating a report written before they existed.
fn strip_adversary_fields(json: Json) -> Json {
    const NEW_FIELDS: [&str; 4] = ["tampered", "omitted", "equivocated", "burst_deliveries"];
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(key, _)| !NEW_FIELDS.contains(&key.as_str()))
                .map(|(key, value)| (key, strip_adversary_fields(value)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_adversary_fields).collect()),
        other => other,
    }
}

#[test]
fn trace_summary_defaults_missing_adversary_fields_to_zero() {
    let old = Json::parse(r#"{"rounds": 3, "transmissions": 40, "deliveries": 80}"#).unwrap();
    let summary = TraceSummary::from_json(&old).unwrap();
    assert_eq!(summary.rounds, 3);
    assert_eq!(summary.tampered, 0);
    assert_eq!(summary.omitted, 0);
    assert_eq!(summary.equivocated, 0);
    assert_eq!(summary.burst_deliveries, 0);
}

/// `lbc campaign diff` against a pre-telemetry report: the old side is
/// missing every adversary-visible field, yet the diff parses and comes
/// back clean because the same execution produced both.
#[test]
fn campaign_diff_accepts_old_reports_without_adversary_fields() {
    let spec = telemetry_spec(5);
    let report = run_campaign(&spec, 2).unwrap().to_json();
    let old = strip_adversary_fields(report.clone()).to_string();
    let new = report.to_string();
    let diff = diff_report_texts(&old, &new).unwrap();
    assert!(
        diff.is_clean(),
        "adversary-field defaults must not register as drift:\n{}",
        diff.render()
    );
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(32))]

    /// The extended summary/stat structs round-trip through JSON exactly,
    /// including nonzero adversary-visible counts.
    #[test]
    fn extended_summary_roundtrips(
        rounds in 0usize..100,
        transmissions in 0usize..10_000,
        tampered in 0usize..500,
        omitted in 0usize..500,
        equivocated in 0usize..500,
        burst in 0usize..500,
    ) {
        let summary = TraceSummary {
            rounds,
            transmissions,
            deliveries: transmissions * 2,
            tampered,
            omitted,
            equivocated,
            burst_deliveries: burst,
        };
        let back = TraceSummary::from_json(
            &Json::parse(&summary.to_json().to_string()).unwrap(),
        ).unwrap();
        prop_assert_eq!(back, summary);
    }
}
