//! The deterministic parallel sweep executor.
//!
//! A campaign's scenarios are embarrassingly parallel: each one is
//! self-contained (own graph build, own pre-seeded adversary, own inputs),
//! so the executor is a plain `std::thread` worker pool pulling scenario
//! indices off an atomic counter and writing records into per-scenario
//! slots. Records are collected *by index*, not by completion order, so the
//! report is byte-identical for any worker count — the pool affects wall
//! time only.
//!
//! The executor is **fault-tolerant** end to end:
//!
//! * **Panic isolation** — every cell body runs under `catch_unwind`; a
//!   panicking scenario becomes a quarantined `failed` record (all-false
//!   verdict, panic payload in the canonical JSON) instead of killing the
//!   worker and the run.
//! * **Watchdogs** — an optional per-cell wall-clock budget
//!   ([`ExecOptions::cell_timeout_micros`], or the spec's `limits` block)
//!   is enforced by a monitor thread through the cooperative
//!   [`CancelToken`] the network checks at every step; a cell over budget
//!   degrades to a `timeout` record carrying the partial trace.
//! * **Checkpointed resume** — with a [`CheckpointConfig`] attached,
//!   completed records are journaled atomically in batches; a killed
//!   campaign resumes by re-running only the incomplete cells, and the
//!   resumed canonical report is byte-identical to the one-shot report.
//! * **Chaos self-injection** — a test-only [`ChaosPolicy`] injects
//!   panics, stalls, and process kills at chosen cells to prove the three
//!   mechanisms above under fire.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use lbc_consensus::runner;
use lbc_model::{ConsensusOutcome, Verdict};
use lbc_sim::cancel::{install_ambient, CancelToken};
use lbc_sim::ObserverHandle;
use lbc_telemetry::MetricsCollector;

use crate::chaos::ChaosPolicy;
use crate::checkpoint::{self, Checkpoint, CheckpointConfig};
use crate::pool;
use crate::report::{CampaignReport, CellStatus, ScenarioRecord};
use crate::spec::{CampaignSpec, Scenario, SpecError};
use crate::telemetry::{CampaignTelemetry, CellTelemetry};

/// How a campaign executes beyond the spec itself: pool width, the opt-in
/// telemetry collectors, the stderr progress ticker, and the
/// fault-tolerance knobs (watchdog budget, checkpoint journal, chaos).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker-pool width (clamped to at least 1).
    pub workers: usize,
    /// Attach a per-cell [`MetricsCollector`] and carry a
    /// [`CampaignTelemetry`] section on the report.
    pub telemetry: bool,
    /// Emit per-cell progress ticks with an ETA on **stderr** (stdout and
    /// the report bytes are unaffected; `--quiet` keeps this off).
    pub progress: bool,
    /// Per-cell wall-clock budget in microseconds, enforced by a watchdog
    /// monitor thread through cooperative cancellation. `None` falls back
    /// to the spec's `limits.cell-timeout-ms` (or no budget at all).
    pub cell_timeout_micros: Option<u64>,
    /// Journal completed records to disk at batch boundaries so a killed
    /// campaign can resume. Ignored under `telemetry` (journaled cells
    /// carry no metrics, so a resumed telemetry section could not match a
    /// one-shot run).
    pub checkpoint: Option<CheckpointConfig>,
    /// Test-only fault self-injection; `None` in production runs.
    pub chaos: Option<ChaosPolicy>,
}

impl ExecOptions {
    /// Options for a plain run on `workers` threads: no telemetry, no
    /// progress ticks, no watchdog, no journal — the exact pre-existing
    /// executor behavior.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ExecOptions {
            workers,
            telemetry: false,
            progress: false,
            cell_timeout_micros: None,
            checkpoint: None,
            chaos: None,
        }
    }
}

/// The stderr progress ticker: carriage-return ticks with an ETA derived
/// from the mean per-cell wall time so far. Lives entirely on stderr; the
/// deterministic surfaces never see it.
struct Progress {
    started: Instant,
    total: usize,
    completed: AtomicUsize,
}

impl Progress {
    fn new(total: usize) -> Self {
        Progress {
            started: Instant::now(),
            total,
            completed: AtomicUsize::new(0),
        }
    }

    fn tick(&self) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = self.started.elapsed().as_secs_f64();
        let eta = if done == 0 {
            0.0
        } else {
            elapsed / done as f64 * (self.total - done) as f64
        };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[{done}/{}] {:.0}% eta {eta:.1}s   ",
            self.total,
            done as f64 / self.total.max(1) as f64 * 100.0,
        );
        if done == self.total {
            let _ = writeln!(err, "\r[{done}/{}] done in {elapsed:.1}s   ", self.total);
        }
    }
}

/// Expands `spec` and executes every scenario on `workers` threads,
/// returning the aggregated report: [`CampaignSpec::expand_noted`]
/// followed by [`run_scenarios_resumable`] with [`ExecOptions::new`].
///
/// `workers` is clamped to at least 1; `workers == 1` runs everything on
/// the calling thread (no pool), which the campaign bench uses as the
/// serial baseline.
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec fails to expand. Execution itself
/// cannot fail: every scenario produces a record (a scenario that exceeds
/// its round budget simply records a non-terminating verdict, and a
/// panicking or over-budget scenario is quarantined as a `failed` /
/// `timeout` record).
pub fn run_campaign(spec: &CampaignSpec, workers: usize) -> Result<CampaignReport, SpecError> {
    let (scenarios, notes) = spec.expand_noted()?;
    run_scenarios_resumable(spec, &scenarios, notes, &ExecOptions::new(workers))
}

/// Executes already-expanded scenarios (from [`CampaignSpec::expand_noted`]
/// on the same spec, whose notes go into the report's metadata) under full
/// [`ExecOptions`]. Callers that need the scenario list up front — the CLI
/// prints its length before running — use this to avoid expanding twice.
///
/// With [`CheckpointConfig::resume`] set and the journal file present, its
/// completed cells are validated against the spec's fingerprint and
/// skipped, and only the incomplete cells run. The resumed canonical report
/// is byte-identical to the one-shot report.
///
/// # Errors
///
/// Returns a [`SpecError`] when the journal exists but belongs to a
/// different campaign or expansion, or when combined with telemetry.
pub fn run_scenarios_resumable(
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    notes: Vec<String>,
    options: &ExecOptions,
) -> Result<CampaignReport, SpecError> {
    let prefill = load_prefill(spec, scenarios, options)?;
    let execute_started = Instant::now();
    let (records, cells) = execute_scenarios_opts(spec, scenarios, options, prefill);
    let execute_micros = phase_micros(execute_started);
    let aggregate_started = Instant::now();
    let report = CampaignReport::with_notes(spec.name.clone(), spec.seed, notes, records);
    let Some(cells) = cells else {
        return Ok(report);
    };
    // Force the rollup aggregation so the `aggregate` phase measures the
    // report-assembly cost rather than deferring it to the first renderer.
    let _ = report.rollups();
    Ok(report.with_telemetry(CampaignTelemetry {
        cells,
        phase_micros: vec![
            ("execute".to_string(), execute_micros),
            ("aggregate".to_string(), phase_micros(aggregate_started)),
        ],
    }))
}

/// Loads the checkpoint journal into a by-index prefill vector when
/// resuming; otherwise an all-`None` vector (run everything).
fn load_prefill(
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    options: &ExecOptions,
) -> Result<Vec<Option<ScenarioRecord>>, SpecError> {
    let fresh = || vec![None; scenarios.len()];
    let Some(config) = &options.checkpoint else {
        return Ok(fresh());
    };
    if !config.resume {
        return Ok(fresh());
    }
    if options.telemetry {
        return Err(SpecError::new(
            "resume cannot be combined with telemetry: journaled cells carry no metrics, \
             so the resumed telemetry section could not match a one-shot run",
        ));
    }
    if !config.path.exists() {
        return Ok(fresh());
    }
    let loaded = Checkpoint::load(&config.path)?;
    loaded.validate(spec, scenarios.len())?;
    let prefill = loaded.into_prefill(scenarios.len());
    for (index, slot) in prefill.iter().enumerate() {
        if let Some(record) = slot {
            if record.seed != scenarios[index].seed {
                return Err(SpecError::new(format!(
                    "checkpoint journal's cell {index} carries seed {} but the spec derives \
                     {} — the journal is not from this expansion",
                    record.seed, scenarios[index].seed
                )));
            }
        }
    }
    Ok(prefill)
}

fn phase_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Runs one scenario to completion and records the outcome.
///
/// This is the **raw** runner: no panic isolation, no watchdog — those
/// wrap it inside the campaign executor. A caller replaying a single
/// scenario gets the undecorated behavior (a panic propagates).
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioRecord {
    let graph = scenario.build_graph();
    let mut adversary = scenario.strategy.clone().into_adversary();
    let started = Instant::now();
    let (outcome, trace) = runner::run_kind_under(
        scenario.algorithm,
        &scenario.regime,
        &graph,
        scenario.f,
        &scenario.inputs,
        &scenario.faulty,
        &mut adversary,
    );
    let wall_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    record_outcome(scenario, &outcome, trace.summary(), wall_micros)
}

/// Runs one scenario with a [`MetricsCollector`] attached, returning the
/// record plus the cell's tallied metrics.
#[must_use]
pub fn run_scenario_observed(scenario: &Scenario) -> (ScenarioRecord, CellTelemetry) {
    let collector = Rc::new(RefCell::new(MetricsCollector::new()));
    let observer = ObserverHandle::from_shared(Rc::clone(&collector));
    let graph = scenario.build_graph();
    let mut adversary = scenario.strategy.clone().into_adversary();
    let started = Instant::now();
    let (outcome, trace) = runner::run_kind_observed(
        scenario.algorithm,
        &scenario.regime,
        &graph,
        scenario.f,
        &scenario.inputs,
        &scenario.faulty,
        &mut adversary,
        observer,
    );
    let wall_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let record = record_outcome(scenario, &outcome, trace.summary(), wall_micros);
    // The network normally drops its observer handle at run end, leaving
    // this Rc exclusive. An engine leaking a handle used to kill the whole
    // campaign here; degrade to a cloned snapshot of the registries and
    // note the degradation instead.
    let (metrics, note) = match Rc::try_unwrap(collector) {
        Ok(exclusive) => (exclusive.into_inner().finish(), None),
        Err(shared) => {
            let metrics = shared.borrow().clone().finish();
            (
                metrics,
                Some(
                    "an observer handle outlived the run; metrics are a recovered snapshot"
                        .to_string(),
                ),
            )
        }
    };
    (
        record,
        CellTelemetry {
            index: scenario.index,
            metrics,
            wall_micros,
            note,
        },
    )
}

pub(crate) fn record_outcome(
    scenario: &Scenario,
    outcome: &ConsensusOutcome,
    stats: lbc_sim::TraceSummary,
    wall_micros: u64,
) -> ScenarioRecord {
    ScenarioRecord {
        index: scenario.index,
        family: scenario.family.name().to_string(),
        graph: scenario.graph.clone(),
        n: scenario.n,
        f: scenario.f,
        algorithm: scenario.algorithm,
        regime: scenario.regime.label(),
        strategy: scenario.strategy_name.to_string(),
        faulty: scenario.faulty.clone(),
        inputs: scenario.inputs.to_string(),
        seed: scenario.seed,
        feasible: scenario.feasible,
        verdict: outcome.verdict(),
        agreed: outcome.agreed_value(),
        stats,
        wall_micros,
        status: CellStatus::Completed,
    }
}

/// The quarantine record for a cell whose body panicked: scenario
/// coordinates intact, all-false verdict, zeroed stats, the payload in
/// `status`.
fn failure_record(scenario: &Scenario, panic: String, wall_micros: u64) -> ScenarioRecord {
    ScenarioRecord {
        index: scenario.index,
        family: scenario.family.name().to_string(),
        graph: scenario.graph.clone(),
        n: scenario.n,
        f: scenario.f,
        algorithm: scenario.algorithm,
        regime: scenario.regime.label(),
        strategy: scenario.strategy_name.to_string(),
        faulty: scenario.faulty.clone(),
        inputs: scenario.inputs.to_string(),
        seed: scenario.seed,
        feasible: scenario.feasible,
        verdict: Verdict {
            agreement: false,
            validity: false,
            termination: false,
        },
        agreed: None,
        stats: lbc_sim::TraceSummary::default(),
        wall_micros,
        status: CellStatus::Failed { panic },
    }
}

/// One scenario's execution result: its record plus, with telemetry
/// enabled, the cell's metrics.
type CellResult = (ScenarioRecord, Option<CellTelemetry>);

thread_local! {
    /// Set while a quarantined cell body runs: panics raised under this
    /// flag are caught and recorded by the executor, so the global hook
    /// stays quiet for them instead of spamming stderr with backtraces of
    /// expected (or chaos-injected) failures.
    static IN_CELL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses the default
/// report for panics the executor is about to catch and quarantine,
/// delegating everything else to the previously installed hook.
fn install_cell_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_CELL.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Renders a caught panic payload (`&str` and `String` payloads carry
/// their message; anything else degrades to a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// One worker's watch slot: the armed cell's deadline and cancel token.
type WatchSlot = Mutex<Option<(Instant, CancelToken)>>;

/// The per-cell wall-clock budget enforcer: workers arm their slot before
/// each cell, a monitor thread cancels tokens whose deadline passed.
struct Watchdog {
    budget: Duration,
    slots: Vec<WatchSlot>,
    done: AtomicBool,
}

impl Watchdog {
    fn new(workers: usize, budget: Duration) -> Self {
        Watchdog {
            budget,
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            done: AtomicBool::new(false),
        }
    }

    fn arm(&self, worker: usize, token: CancelToken) {
        *self.slots[worker].lock().expect("watchdog slot") =
            Some((Instant::now() + self.budget, token));
    }

    fn disarm(&self, worker: usize) {
        *self.slots[worker].lock().expect("watchdog slot") = None;
    }

    fn stop(&self) {
        self.done.store(true, Ordering::Relaxed);
    }

    /// The monitor loop: poll at an eighth of the budget (clamped to
    /// [1ms, 250ms]) and cancel any armed cell past its deadline. A fired
    /// cell stays armed until its worker disarms it — cancellation is
    /// cooperative, the monitor never blocks on the cell.
    fn monitor(&self) {
        let poll = (self.budget / 8).clamp(Duration::from_millis(1), Duration::from_millis(250));
        while !self.done.load(Ordering::Relaxed) {
            std::thread::sleep(poll);
            let now = Instant::now();
            for slot in &self.slots {
                if let Some((deadline, token)) = &*slot.lock().expect("watchdog slot") {
                    if now >= *deadline {
                        token.cancel();
                    }
                }
            }
        }
    }
}

/// The checkpoint journal shared by the workers: completed records keyed
/// by index, rewritten atomically to disk at batch boundaries.
struct Journal<'a> {
    config: &'a CheckpointConfig,
    name: &'a str,
    seed: u64,
    total: usize,
    /// Chaos: abort the process after this many records are journaled.
    kill_after: Option<usize>,
    state: Mutex<JournalState>,
}

struct JournalState {
    records: BTreeMap<usize, ScenarioRecord>,
    pending_batch: usize,
}

impl<'a> Journal<'a> {
    fn new<'r>(
        config: &'a CheckpointConfig,
        spec: &'a CampaignSpec,
        total: usize,
        resumed: impl Iterator<Item = &'r ScenarioRecord>,
        kill_after: Option<usize>,
    ) -> Self {
        Journal {
            config,
            name: &spec.name,
            seed: spec.seed,
            total,
            kill_after,
            state: Mutex::new(JournalState {
                records: resumed.map(|r| (r.index, r.clone())).collect(),
                pending_batch: 0,
            }),
        }
    }

    fn record(&self, record: &ScenarioRecord) {
        let mut state = self.state.lock().expect("journal lock");
        state.records.insert(record.index, record.clone());
        state.pending_batch += 1;
        let kill = self.kill_after.is_some_and(|k| state.records.len() >= k);
        if state.pending_batch >= self.config.every.max(1) || kill {
            state.pending_batch = 0;
            self.write(&state);
        }
        if kill {
            // Chaos: simulate a hard kill right after a batch boundary —
            // no unwinding, no Drop, exactly what SIGKILL leaves behind.
            std::process::abort();
        }
    }

    fn write(&self, state: &JournalState) {
        if let Err(error) = checkpoint::write_atomic(
            &self.config.path,
            self.name,
            self.seed,
            self.total,
            state.records.values(),
        ) {
            // Durability is best-effort: never sacrifice the in-memory run
            // to a journal I/O failure.
            eprintln!(
                "warning: checkpoint write to {} failed: {error}",
                self.config.path.display()
            );
        }
    }
}

/// Runs one cell with the full fault-tolerance wrapper: watchdog arming,
/// chaos injection, ambient cancellation, and panic quarantine.
fn run_cell(
    scenario: &Scenario,
    telemetry: bool,
    budget_micros: Option<u64>,
    watchdog: Option<(&Watchdog, usize)>,
    chaos: &ChaosPolicy,
) -> CellResult {
    let token = CancelToken::new();
    if let Some((watchdog, worker)) = watchdog {
        watchdog.arm(worker, token.clone());
    }
    // An injected stall sits inside the armed window on purpose: with a
    // budget below the delay, the monitor cancels before the run's first
    // step, so the chaos timeout record is deterministic (empty trace).
    if let Some(ms) = chaos.delay_ms(scenario.index) {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let started = Instant::now();
    let ambient = watchdog.is_some().then(|| install_ambient(token.clone()));
    IN_CELL.with(|flag| flag.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if chaos.panics(scenario.index) {
            panic!("chaos: injected panic in cell {}", scenario.index);
        }
        if telemetry {
            let (record, cell) = run_scenario_observed(scenario);
            (record, Some(cell))
        } else {
            (run_scenario(scenario), None)
        }
    }));
    IN_CELL.with(|flag| flag.set(false));
    drop(ambient);
    if let Some((watchdog, worker)) = watchdog {
        watchdog.disarm(worker);
    }
    let wall_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    match result {
        Ok((mut record, mut cell)) => {
            if token.is_cancelled() {
                record.status = CellStatus::TimedOut {
                    budget_micros: budget_micros.unwrap_or(0),
                };
                record.verdict = Verdict {
                    agreement: false,
                    validity: false,
                    termination: false,
                };
                record.agreed = None;
                if let Some(cell) = &mut cell {
                    cell.note = Some(
                        "cell timed out; metrics are the partial pre-cancellation tallies"
                            .to_string(),
                    );
                }
            }
            (record, cell)
        }
        Err(payload) => {
            let record = failure_record(scenario, panic_message(payload.as_ref()), wall_micros);
            let cell = telemetry.then(|| CellTelemetry {
                index: scenario.index,
                metrics: lbc_telemetry::MetricsRegistry::default(),
                wall_micros,
                note: Some(
                    "cell panicked; its metrics were lost with the unwound stack".to_string(),
                ),
            });
            (record, cell)
        }
    }
}

/// Executes scenarios over a worker pool, returning records — and, with
/// telemetry enabled, per-cell metrics — in scenario (expansion) order
/// regardless of completion order. `prefill` carries checkpoint-restored
/// records; only the `None` cells run.
fn execute_scenarios_opts(
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    options: &ExecOptions,
    prefill: Vec<Option<ScenarioRecord>>,
) -> (Vec<ScenarioRecord>, Option<Vec<CellTelemetry>>) {
    debug_assert_eq!(prefill.len(), scenarios.len());
    let pending: Vec<usize> = prefill
        .iter()
        .enumerate()
        .filter_map(|(index, slot)| slot.is_none().then_some(index))
        .collect();
    let workers = options.workers.max(1).min(pending.len().max(1));
    let progress = options.progress.then(|| Progress::new(pending.len()));
    let chaos = options.chaos.clone().unwrap_or_default();
    let budget_micros = options.cell_timeout_micros.or_else(|| {
        spec.limits
            .and_then(|limits| limits.cell_timeout_ms.map(|ms| ms.saturating_mul(1000)))
    });
    // Journaling is off under telemetry: journaled cells carry no metrics,
    // so a resumed telemetry section could not match a one-shot run.
    let journal = if options.telemetry {
        None
    } else {
        options.checkpoint.as_ref()
    }
    .map(|config| {
        Journal::new(
            config,
            spec,
            scenarios.len(),
            prefill.iter().flatten(),
            chaos.kill_after,
        )
    });
    let fresh = if pending.is_empty() {
        Vec::new()
    } else {
        install_cell_panic_hook();
        let watchdog =
            budget_micros.map(|micros| Watchdog::new(workers, Duration::from_micros(micros)));
        let run_pending = || {
            pool::run_ordered(workers, pending.len(), |worker, claim| {
                let result = run_cell(
                    &scenarios[pending[claim]],
                    options.telemetry,
                    budget_micros,
                    watchdog.as_ref().map(|w| (w, worker)),
                    &chaos,
                );
                if let Some(journal) = &journal {
                    journal.record(&result.0);
                }
                if let Some(progress) = &progress {
                    progress.tick();
                }
                result
            })
        };
        match &watchdog {
            None => run_pending(),
            Some(watchdog) => std::thread::scope(|scope| {
                scope.spawn(|| watchdog.monitor());
                let results = run_pending();
                watchdog.stop();
                results
            }),
        }
    };
    let mut fresh = fresh.into_iter();
    let mut records = Vec::with_capacity(prefill.len());
    let mut cells = options.telemetry.then(Vec::new);
    for slot in prefill {
        let (record, cell) = match slot {
            Some(record) => (record, None),
            None => fresh
                .next()
                .expect("the pool returns one result per pending cell"),
        };
        records.push(record);
        if let (Some(cells), Some(cell)) = (&mut cells, cell) {
            cells.push(cell);
        }
    }
    (records, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        FRange, FaultPolicy, GraphFamily, InputPolicy, RegimeSpec, SizeSpec, StrategySpec,
        SweepSpec,
    };
    use lbc_consensus::AlgorithmKind;

    fn tiny_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "executor-unit".to_string(),
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

    #[test]
    fn campaign_runs_and_judges_all_scenarios() {
        let report = run_campaign(&tiny_spec(42), 2).unwrap();
        assert_eq!(report.records().len(), 10);
        assert!(report.all_correct());
        for record in report.records() {
            assert!(record.verdict.is_correct());
            assert!(record.stats.rounds > 0);
            assert!(record.stats.transmissions > 0);
        }
    }

    #[test]
    fn records_come_back_in_expansion_order() {
        let report = run_campaign(&tiny_spec(42), 4).unwrap();
        for (i, record) in report.records().iter().enumerate() {
            assert_eq!(record.index, i);
        }
    }

    #[test]
    fn single_scenario_roundtrip() {
        let scenarios = tiny_spec(1).expand().unwrap();
        let record = run_scenario(&scenarios[0]);
        assert_eq!(record.index, 0);
        assert_eq!(record.family, "fig1a");
        assert_eq!(record.n, 5);
        assert!(record.verdict.is_correct());
    }

    #[test]
    fn chaos_panic_is_quarantined_not_fatal() {
        let spec = tiny_spec(42);
        let scenarios = spec.expand().unwrap();
        let mut options = ExecOptions::new(2);
        options.chaos = Some(ChaosPolicy::parse("panic=3").unwrap());
        let report = run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options).unwrap();
        assert_eq!(report.records().len(), 10);
        assert_eq!(report.quarantined().len(), 1);
        let failed = &report.records()[3];
        match &failed.status {
            CellStatus::Failed { panic } => assert_eq!(panic, "chaos: injected panic in cell 3"),
            other => panic!("expected a failed record, got {other:?}"),
        }
        assert!(!failed.verdict.is_correct());
        assert!(failed.agreed.is_none());
        // Every other cell is untouched by the quarantine.
        for (index, record) in report.records().iter().enumerate() {
            if index != 3 {
                assert!(record.status.is_completed());
                assert!(record.verdict.is_correct());
            }
        }
    }

    #[test]
    fn chaos_delay_trips_the_watchdog() {
        let spec = tiny_spec(42);
        let scenarios = spec.expand().unwrap();
        let mut options = ExecOptions::new(2);
        options.cell_timeout_micros = Some(20_000);
        options.chaos = Some(ChaosPolicy::parse("delay=2:300").unwrap());
        let report = run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options).unwrap();
        let timed_out = &report.records()[2];
        assert_eq!(
            timed_out.status,
            CellStatus::TimedOut {
                budget_micros: 20_000
            }
        );
        assert!(!timed_out.verdict.is_correct());
        // Cancellation fired during the injected stall, before the run's
        // first step: the partial trace is empty.
        assert_eq!(timed_out.stats.rounds, 0);
        // The fast cells finish far inside the budget and are untouched.
        assert_eq!(report.quarantined().len(), 1);
    }

    #[test]
    fn spec_limits_provide_the_default_budget() {
        let mut spec = tiny_spec(42);
        spec.limits = Some(crate::spec::LimitsSpec {
            cell_timeout_ms: Some(20),
        });
        let scenarios = spec.expand().unwrap();
        let mut options = ExecOptions::new(1);
        options.chaos = Some(ChaosPolicy::parse("delay=0:300").unwrap());
        let report = run_scenarios_resumable(&spec, &scenarios, Vec::new(), &options).unwrap();
        assert_eq!(
            report.records()[0].status,
            CellStatus::TimedOut {
                budget_micros: 20_000
            }
        );
    }
}
