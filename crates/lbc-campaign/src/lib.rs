//! # lbc-campaign
//!
//! Declarative **scenario specs** and a **deterministic parallel sweep
//! executor** for the local-broadcast consensus workspace.
//!
//! The paper's claims are quantified over *families* of executions — every
//! fault placement × adversary strategy × graph × `f` — but replaying
//! hardcoded experiment functions one at a time does not scale past a
//! handful of configurations. This crate treats "which executions to run"
//! as *data*:
//!
//! * [`spec`] — a JSON-serializable [`CampaignSpec`]: a list of sweep
//!   grids (graph family + size range, `f` range, algorithms, adversary
//!   strategies, fault-placement policy, input-assignment policy) expanded
//!   deterministically into a flat list of concrete [`Scenario`]s.
//! * [`executor`] — a `std::thread` worker pool running scenarios in
//!   parallel. Every scenario is self-contained and carries its own seed,
//!   derived from the campaign seed and the scenario's position in the
//!   expansion order, so the produced report is **byte-identical regardless
//!   of worker count or scheduling**.
//! * [`report`] — the results store: per-scenario records (verdict, rounds,
//!   transmissions, deliveries, wall time) aggregated into a
//!   [`CampaignReport`] with JSON and CSV writers plus summary rollups per
//!   `(family, n, f, strategy)` group.
//! * [`search`] — the per-cell **worst-case adversary search**
//!   (`lbc search spec.json`): a budgeted, resumable beam search over the
//!   joint strategy × fault-placement × input space of every
//!   `(graph, f, algorithm)` cell, ranked by a [`Severity`] metric
//!   (violation > dissent margin > rounds > volume), with greedy
//!   counterexample minimization into replayable spec fragments.
//! * [`diff`] — cell-by-cell comparison of two canonical reports
//!   (`lbc campaign diff old.json new.json`, campaign or search, optionally
//!   `--cross-spec`), failing on verdict regressions and lost violations —
//!   the guard that lets the engines underneath change (e.g. the shared
//!   flood fabric) without silently changing results.
//!
//! ## Determinism contract
//!
//! Everything that influences an outcome is fixed at *expansion* time, on a
//! single thread: graph construction, fault placements (including the
//! `random` policy, seeded from the campaign seed), input assignments, and
//! the per-scenario adversary seed
//! (`scenario.seed = mix_seed([SALT_SCENARIO, campaign_seed, index])`; see
//! [`spec::mix_seed`] for the exact derivation). Workers only
//! *evaluate* scenarios; they contribute no randomness and no ordering.
//! The canonical JSON report therefore contains no wall-clock fields — the
//! measured `wall_micros` travels in the CSV rows and the stdout summary,
//! which are explicitly outside the byte-identical contract. The search
//! engine extends the same contract with per-cell and per-round derived
//! seeds, making its canonical report additionally stable under
//! budget-resume (`lbc search --resume`).
//!
//! ## Example
//!
//! ```
//! use lbc_campaign::{run_campaign, CampaignSpec};
//! use lbc_model::json::Json;
//!
//! let spec = CampaignSpec::from_json_text(
//!     r#"{
//!       "name": "doc-smoke",
//!       "seed": 7,
//!       "sweeps": [{
//!         "family": {"kind": "cycle"},
//!         "sizes": {"list": [5]},
//!         "f": 1,
//!         "algorithms": ["alg1"],
//!         "strategies": ["tamper-relays"],
//!         "faults": {"policy": "exhaustive"},
//!         "inputs": {"policy": "alternating"}
//!       }]
//!     }"#,
//! )
//! .unwrap();
//! let report = run_campaign(&spec, 2).unwrap();
//! assert_eq!(report.records().len(), 5); // 5 fault placements on C5
//! assert!(report.all_correct());
//! // The canonical JSON is independent of the worker count:
//! assert_eq!(
//!     Json::parse(&report.to_json().to_string()).unwrap(),
//!     run_campaign(&spec, 1).unwrap().to_json()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod checkpoint;
pub mod diff;
pub mod executor;
pub mod explain;
mod pool;
pub mod report;
pub mod search;
pub mod serve;
pub mod spec;
pub mod telemetry;

pub use chaos::ChaosPolicy;
pub use checkpoint::{Checkpoint, CheckpointConfig};
pub use diff::{diff_report_texts, diff_reports, CampaignDiff, CellChange, DiffOptions};
pub use executor::{
    run_campaign, run_scenario, run_scenario_observed, run_scenarios_resumable, ExecOptions,
};
pub use explain::{replay_scenario, TraceReplay};
pub use report::{CampaignReport, CellStatus, RollupRow, ScenarioRecord};
pub use search::{
    render_search_plan, run_search_resumed, CellOutcome, Counterexample, SearchReport, SearchSpec,
    Severity,
};
pub use serve::{
    run_serve_opts, InstanceRecord, LaneReport, ServeLaneSpec, ServeReport, ServeSpec,
};
pub use spec::{
    CampaignSpec, FaultPolicy, GraphFamily, InputPolicy, LimitsSpec, RegimeSpec, Scenario,
    SizeSpec, SpecError, StrategySpec, SweepSpec,
};
pub use telemetry::{CampaignTelemetry, CellTelemetry};
