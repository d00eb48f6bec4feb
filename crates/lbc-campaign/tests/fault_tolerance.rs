//! Fault-tolerance guarantees of the campaign executor.
//!
//! * **Checkpointed resume**: a campaign killed after *any* number of
//!   journaled cells and resumed with `--resume` must reproduce the
//!   one-shot canonical report **byte-for-byte**, at any worker count.
//!   The kill is simulated by fabricating the exact journal a death at
//!   that point leaves behind (the executor writes it atomically, so a
//!   real kill leaves a valid prefix journal; the subprocess-level SIGKILL
//!   version lives in `scripts/chaos_smoke.sh`).
//! * **Panic isolation**: a chaos-injected panicking cell becomes a
//!   quarantined `failed` record; every other cell's record is exactly the
//!   record of a clean run, and the quarantined report itself is
//!   byte-identical across worker counts.
//! * **Quarantine records** (`failed` / `timeout`) round-trip through the
//!   canonical report JSON (property-based, arbitrary panic payloads).

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use lbc_campaign::checkpoint::write_atomic;
use lbc_campaign::spec::{FRange, RegimeSpec};
use lbc_campaign::{
    diff_report_texts, run_scenarios_resumable, CampaignSpec, CellStatus, ChaosPolicy,
    CheckpointConfig, ExecOptions, FaultPolicy, GraphFamily, InputPolicy, ScenarioRecord, SizeSpec,
    StrategySpec, SweepSpec,
};
use lbc_consensus::AlgorithmKind;
use lbc_model::json::Json;
use lbc_model::{NodeId, NodeSet, Value, Verdict};
use lbc_sim::TraceSummary;

/// A 10-cell campaign small enough to re-run dozens of times.
fn small_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "fault-tolerance".to_string(),
        seed,
        sweeps: vec![SweepSpec {
            family: GraphFamily::Fig1a,
            sizes: SizeSpec::List(vec![5]),
            f: FRange::exactly(1),
            algorithms: vec![AlgorithmKind::Algorithm1],
            regimes: RegimeSpec::default_axis(),
            strategies: vec![StrategySpec::TamperRelays, StrategySpec::Silent],
            faults: FaultPolicy::Exhaustive,
            inputs: InputPolicy::Bits(0b01101),
        }],
        search: None,
        limits: None,
        serve: None,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbc-ft-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Killing the campaign after any number of journaled cells and resuming
/// must reproduce the one-shot report byte-for-byte — at 1, 2, and 8
/// workers. The journal a kill leaves behind is fabricated directly: the
/// executor writes it atomically at batch boundaries, so a real death
/// leaves exactly such a prefix (the live SIGKILL variant is covered by
/// `scripts/chaos_smoke.sh`).
#[test]
fn resume_reproduces_the_one_shot_report_from_every_kill_point() {
    let spec = small_spec(2027);
    let scenarios = spec.expand().unwrap();
    let one_shot = run_scenarios_resumable(&spec, &scenarios, Vec::new(), &ExecOptions::new(2))
        .unwrap()
        .to_json()
        .to_string();
    let records: Vec<ScenarioRecord> =
        run_scenarios_resumable(&spec, &scenarios, Vec::new(), &ExecOptions::new(1))
            .unwrap()
            .records()
            .to_vec();
    let dir = scratch_dir("resume");
    let journal = dir.join("fault-tolerance.checkpoint.json");
    for workers in [1, 2, 8] {
        for completed in 0..=records.len() {
            write_atomic(
                &journal,
                &spec.name,
                spec.seed,
                scenarios.len(),
                records[..completed].iter(),
            )
            .unwrap();
            let options = ExecOptions {
                checkpoint: Some(CheckpointConfig {
                    path: journal.clone(),
                    every: 3,
                    resume: true,
                }),
                ..ExecOptions::new(workers)
            };
            let resumed = run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options)
                .unwrap()
                .to_json()
                .to_string();
            assert_eq!(
                resumed,
                one_shot,
                "resume with {completed}/{} cells journaled on {workers} workers \
                 must be byte-identical to the one-shot report",
                records.len()
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A journal that does not belong to this campaign — wrong seed, wrong
/// grid size, or combined with telemetry — must refuse to resume instead
/// of silently mixing results.
#[test]
fn resume_rejects_foreign_journals_and_telemetry() {
    let spec = small_spec(2027);
    let scenarios = spec.expand().unwrap();
    let records: Vec<ScenarioRecord> =
        run_scenarios_resumable(&spec, &scenarios, Vec::new(), &ExecOptions::new(1))
            .unwrap()
            .records()
            .to_vec();
    let dir = scratch_dir("reject");
    let journal = dir.join("fault-tolerance.checkpoint.json");
    let resume_with = |options: &mut ExecOptions| {
        options.checkpoint = Some(CheckpointConfig {
            path: journal.clone(),
            every: 8,
            resume: true,
        });
    };
    // Wrong seed: the fingerprint validation shared with search --resume.
    write_atomic(&journal, &spec.name, 999, scenarios.len(), records.iter()).unwrap();
    let mut options = ExecOptions::new(2);
    resume_with(&mut options);
    assert!(run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options).is_err());
    // Wrong grid size: the expansion changed since the journal was written.
    write_atomic(
        &journal,
        &spec.name,
        spec.seed,
        scenarios.len() + 1,
        records.iter(),
    )
    .unwrap();
    assert!(run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options).is_err());
    // Telemetry + resume: journaled cells carry no metrics.
    write_atomic(
        &journal,
        &spec.name,
        spec.seed,
        scenarios.len(),
        records.iter(),
    )
    .unwrap();
    options.telemetry = true;
    assert!(run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options).is_err());
    // A missing journal is a fresh start, not an error.
    options.telemetry = false;
    fs::remove_file(&journal).unwrap();
    assert!(run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options).is_ok());
    fs::remove_dir_all(&dir).unwrap();
}

/// A chaos-injected panicking cell is quarantined without perturbing any
/// other cell: the quarantined report is byte-identical across worker
/// counts, and every non-injected record equals the clean run's record.
/// `campaign diff` flags the newly failed cell as a regression.
#[test]
fn injected_panic_quarantines_exactly_one_cell() {
    let spec = small_spec(2027);
    let scenarios = spec.expand().unwrap();
    let clean =
        run_scenarios_resumable(&spec, &scenarios, Vec::new(), &ExecOptions::new(2)).unwrap();
    let chaos_opts = |workers: usize| ExecOptions {
        chaos: Some(ChaosPolicy::parse("panic=4").unwrap()),
        ..ExecOptions::new(workers)
    };
    let quarantined =
        run_scenarios_resumable(&spec, &scenarios, Vec::new(), &chaos_opts(1)).unwrap();
    for workers in [2, 8] {
        assert_eq!(
            run_scenarios_resumable(&spec, &scenarios, Vec::new(), &chaos_opts(workers))
                .unwrap()
                .to_json()
                .to_string(),
            quarantined.to_json().to_string(),
            "quarantined report must be byte-identical on {workers} workers"
        );
    }
    assert!(matches!(
        quarantined.records()[4].status,
        CellStatus::Failed { .. }
    ));
    for (index, (clean_record, chaos_record)) in clean
        .records()
        .iter()
        .zip(quarantined.records())
        .enumerate()
    {
        if index == 4 {
            continue;
        }
        assert_eq!(
            clean_record.to_canonical_json().to_string(),
            chaos_record.to_canonical_json().to_string(),
            "cell {index} must be untouched by the quarantine of cell 4"
        );
    }
    // The diff gate treats the newly failed cell as a regression.
    let diff = diff_report_texts(
        &clean.to_json().to_string(),
        &quarantined.to_json().to_string(),
    )
    .unwrap();
    assert!(diff.has_regressions(), "{}", diff.render());
}

fn record_with_status(index: usize, seed: u64, status: CellStatus) -> ScenarioRecord {
    let quarantined = !status.is_completed();
    ScenarioRecord {
        index,
        family: "cycle".to_string(),
        graph: "C5".to_string(),
        n: 5,
        f: 1,
        algorithm: AlgorithmKind::Algorithm1,
        regime: "sync".to_string(),
        strategy: "tamper-relays".to_string(),
        faulty: NodeSet::singleton(NodeId::new(index % 5)),
        inputs: "01101".to_string(),
        seed,
        feasible: true,
        verdict: Verdict {
            agreement: !quarantined,
            validity: !quarantined,
            termination: !quarantined,
        },
        agreed: (!quarantined).then_some(Value::One),
        stats: TraceSummary {
            rounds: usize::from(!quarantined) * 3,
            transmissions: usize::from(!quarantined) * 42,
            deliveries: usize::from(!quarantined) * 84,
            ..TraceSummary::default()
        },
        wall_micros: 0,
        status,
    }
}

/// Derives a panic payload from a seed, drawing from a palette of the
/// characters most likely to break JSON escaping (quotes, backslashes,
/// control characters, braces, non-ASCII).
fn panic_payload(seed: u64) -> String {
    const PALETTE: [char; 8] = ['a', '"', '\\', 'π', '\n', ' ', '{', ':'];
    let mut text = String::new();
    let mut state = seed;
    for _ in 0..(seed % 24) {
        text.push(PALETTE[(state % PALETTE.len() as u64) as usize]);
        state = state / PALETTE.len() as u64 + 1;
    }
    text
}

proptest! {
    /// Failure and timeout records survive the canonical-JSON round trip
    /// (the same path checkpoint journals and `--resume` rely on), for
    /// arbitrary panic payloads and budgets.
    #[test]
    fn quarantine_records_roundtrip_through_canonical_json(
        index in 0usize..1000,
        seed in 0u64..(1 << 53),
        budget in 0u64..600_000_000,
        kind in 0u8..3,
        panic_seed in 0u64..(1 << 40),
    ) {
        let status = match kind {
            0 => CellStatus::Completed,
            1 => CellStatus::Failed { panic: panic_payload(panic_seed) },
            _ => CellStatus::TimedOut { budget_micros: budget },
        };
        let record = record_with_status(index, seed, status);
        let text = record.to_canonical_json().to_string();
        let back = ScenarioRecord::from_canonical_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back.status, &record.status);
        prop_assert_eq!(back.to_canonical_json().to_string(), text);
    }
}
