//! The four workloads: their specs, set-up, timed executions, output checks
//! and metrics.
//!
//! Every workload is a committed campaign spec run through the same public
//! entry point its `lbc` subcommand calls, with the subcommand's own options
//! (two workers, the checkpoint journal for campaigns) and its reports
//! rendered and written to disk, so `wall_s` is what an `lbc` user waits
//! for.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lbc_campaign::search::Scored;
use lbc_campaign::spec::mix_seed;
use lbc_campaign::{
    render_search_plan, run_scenarios_resumable, run_search_resumed, run_serve_opts,
    CampaignReport, CampaignSpec, CellOutcome, CheckpointConfig, ExecOptions, LaneReport, Scenario,
    ScenarioRecord, SearchReport, ServeReport, Severity,
};
use lbc_consensus::{runner, AlgorithmKind};
use lbc_model::json::ToJson;
use lbc_model::{NodeId, NodeSet};

use crate::layers::{self, Run, Totals};
use crate::stats::{fnv1a64, median, percentile};
use crate::{heap, probe};

/// Worker threads, as `lbc campaign --workers 2` on the two-core machine
/// the baseline was measured on.
pub const WORKERS: usize = 2;
/// Set-ups timed ahead of every execution; `setup_s` is the median of
/// all of them (at least 28 per run).
const SETUPS_PER_REP: usize = 7;
/// Input sets a run cycles through, one per repetition: the spec at the
/// run's seed and at seeds derived from it. A run measures whole cycles,
/// so every input set weighs alike and a metric does not hang on the one
/// set a single seed gives.
const SEEDS_PER_RUN: usize = 4;
/// Salt of the derived input seeds.
const SALT_RUN: u64 = 0xBE;
/// Timed re-evaluations of every final search frontier candidate; three
/// give a run about a thousand latency samples.
const SEARCH_LATENCY_REPEATS: usize = 3;
/// Failure messages kept per run (the count is always exact).
const MAX_FAILURE_MESSAGES: usize = 20;
/// The lane seed salt of `lbc_campaign::serve` (crate-private there); a
/// change to it shows up as a serve replay mismatch.
const SALT_SERVE: u64 = 0x5E;

/// Which `lbc` subcommand a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Campaign,
    Search,
    Serve,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    spec: &'static str,
    /// FNV-1a-64 of the canonical report (`to_json().pretty()`) at the
    /// spec's own seed.
    pinned_digest: u64,
}

/// The workloads, in the order a run without `--workload` measures them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense-sync",
        kind: Kind::Campaign,
        spec: include_str!("../workloads/dense_sync.json"),
        pinned_digest: 0x93e9_35d7_c385_f5c6,
    },
    Workload {
        name: "async-circulant",
        kind: Kind::Campaign,
        spec: include_str!("../workloads/async_circulant.json"),
        pinned_digest: 0xedcc_7d8b_8cec_5867,
    },
    Workload {
        name: "search-boundary",
        kind: Kind::Search,
        spec: include_str!("../workloads/search_boundary.json"),
        pinned_digest: 0x06e4_c604_a4d6_14dd,
    },
    Workload {
        name: "serve-chain",
        kind: Kind::Serve,
        spec: include_str!("../workloads/serve_chain.json"),
        pinned_digest: 0xe8e2_ea35_076f_79b5,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The committed spec with `seed` (or its own seed) in place.
    pub fn spec(&self, seed: Option<u64>) -> CampaignSpec {
        let mut spec =
            CampaignSpec::from_json_text(self.spec).expect("committed workload specs parse");
        if let Some(seed) = seed {
            spec.seed = seed;
        }
        spec
    }

    /// The seed the pinned digest belongs to.
    pub fn default_seed(&self) -> u64 {
        self.spec(None).seed
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of measuring one workload.
#[derive(Debug)]
pub struct Measurement {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed ahead of the result.
    pub lines: Vec<String>,
}

/// Output checks, counted against the number attempted.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < MAX_FAILURE_MESSAGES {
                self.messages.push(what());
            }
        }
    }

    /// Checks a canonical report's digest against `expected`, which the
    /// first report of an input set fills when nothing is pinned.
    fn digest(&mut self, expected: &mut Option<u64>, digest: u64) {
        let expected = *expected.get_or_insert(digest);
        self.check(digest == expected, || {
            format!("report_digest {digest:016x} differs from {expected:016x}")
        });
    }
}

/// A set-up spec, ready to execute.
struct Prepared {
    spec: CampaignSpec,
    /// The expansion (campaign workloads only).
    scenarios: Vec<Scenario>,
    notes: Vec<String>,
}

/// One input set of a run: the spec at one seed.
struct Slot {
    seed: u64,
    spec_path: PathBuf,
    prepared: Prepared,
    /// The digest every execution of this input set must reproduce: the
    /// pinned one at the workload's own seed, else the first execution's.
    digest: Option<u64>,
    /// The digest of the latest execution.
    last_digest: u64,
}

/// The input seeds of a run at `seed`: `seed` itself first, then seeds
/// derived from it, each below 2^53 so a spec carries it exactly.
fn input_seeds(seed: u64) -> Vec<u64> {
    std::iter::once(seed)
        .chain((1..SEEDS_PER_RUN as u64).map(|k| mix_seed(&[SALT_RUN, seed, k]) >> 11))
        .collect()
}

/// What one execution produced.
enum Executed {
    Campaign(CampaignReport),
    Search(SearchReport),
    Serve(ServeReport),
}

/// One timed execution.
struct Rep {
    wall_s: f64,
    render_s: f64,
    report_bytes: usize,
    /// Consensus executions completed (cells, search evaluations or serve
    /// instances).
    executions: u64,
    /// Per-execution latencies in microseconds.
    latencies: Vec<u64>,
    /// The executor's busy time: Σ per-cell (or per-lane) wall time, or
    /// for a search the CPU time of the execution.
    busy_s: f64,
    /// Untraced wall time of exactly what the traced pass replays: the
    /// execution itself, or for a search its final frontier.
    replay_base_s: f64,
    executed: Executed,
}

fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

/// Where reports, journals and the seeded specs go: under the Cargo target
/// directory, which the checkout's ignore rules cover.
fn output_dir(workload: &Workload) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("lbc-benchmark")
        .join(workload.name)
}

/// Reads the seeded spec back and expands it, as the `lbc` subcommand does
/// before executing; returns the prepared spec, the whole set-up time and
/// the expansion's share of it.
fn set_up(kind: Kind, spec_path: &Path) -> Result<(Prepared, Duration, Duration), String> {
    let started = Instant::now();
    let text = fs::read_to_string(spec_path)
        .map_err(|err| format!("cannot read {}: {err}", spec_path.display()))?;
    let spec = CampaignSpec::from_json_text(&text).map_err(|err| err.to_string())?;
    let expanding = Instant::now();
    let mut prepared = Prepared {
        scenarios: Vec::new(),
        notes: Vec::new(),
        spec,
    };
    match kind {
        Kind::Campaign => {
            (prepared.scenarios, prepared.notes) = prepared
                .spec
                .expand_noted()
                .map_err(|err| err.to_string())?;
        }
        Kind::Search => {
            render_search_plan(&prepared.spec).map_err(|err| err.to_string())?;
        }
        Kind::Serve => {
            // The lane expansion `run_serve_opts` performs: graphs and input
            // sets per lane.
            let spec = &prepared.spec;
            let serve = spec
                .serve
                .as_ref()
                .ok_or("serve workload without a serve block")?;
            for (index, lane) in serve.lanes.iter().enumerate() {
                std::hint::black_box(lane.family.build(lane.n));
                lane.inputs
                    .assignments(lane.n, lane_inputs_seed(spec.seed, index))
                    .map_err(|err| err.to_string())?;
            }
        }
    }
    Ok((prepared, started.elapsed(), expanding.elapsed()))
}

fn lane_seed(spec_seed: u64, lane: usize) -> u64 {
    mix_seed(&[SALT_SERVE, spec_seed, lane as u64])
}

fn lane_inputs_seed(spec_seed: u64, lane: usize) -> u64 {
    mix_seed(&[SALT_SERVE, spec_seed, lane as u64, 1])
}

fn write(path: PathBuf, text: &str) -> Result<(), String> {
    fs::write(&path, text).map_err(|err| format!("cannot write {}: {err}", path.display()))
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match fs::remove_file(path) {
        Err(err) if err.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {err}", path.display()))
        }
        _ => Ok(()),
    }
}

/// CPU time the process has used so far, over all its threads, from
/// `/proc/self/stat`; `None` where that file cannot be read.
///
/// A search records no per-cell times, so its executor's busy time is the
/// CPU time its workers use instead.
fn process_cpu_s() -> Option<f64> {
    // utime and stime count ticks of USER_HZ, which is 100 on x86 and Arm.
    const TICKS_PER_S: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Runs one execution through the `lbc` entry point and writes its
/// reports; the timing covers the execute call through the written files.
fn execute(
    kind: Kind,
    prepared: &Prepared,
    dir: &Path,
    workers: usize,
) -> Result<(Rep, String), String> {
    let spec = &prepared.spec;
    let mut search_busy_s = 0.0;
    let started = Instant::now();
    let (executed, rendering, canonical, bytes) = match kind {
        Kind::Campaign => {
            let journal = dir.join(format!("{}.checkpoint.json", spec.name));
            let mut options = ExecOptions::new(workers);
            options.checkpoint = Some(CheckpointConfig::new(journal.clone()));
            let report = run_scenarios_resumable(
                spec,
                &prepared.scenarios,
                prepared.notes.clone(),
                &options,
            )
            .map_err(|err| err.to_string())?;
            let rendering = Instant::now();
            let canonical = report.to_json().pretty();
            let csv = report.to_csv();
            let rendering = rendering.elapsed();
            write(
                dir.join(format!("{}.report.json", spec.name)),
                &format!("{canonical}\n"),
            )?;
            write(dir.join(format!("{}.report.csv", spec.name)), &csv)?;
            remove_if_present(&journal)?;
            let bytes = canonical.len() + 1 + csv.len();
            (Executed::Campaign(report), rendering, canonical, bytes)
        }
        Kind::Search => {
            let cpu_before = process_cpu_s();
            let report = run_search_resumed(spec, None, workers).map_err(|err| err.to_string())?;
            search_busy_s = cpu_before
                .zip(process_cpu_s())
                .map_or(0.0, |(before, after)| after - before);
            let rendering = Instant::now();
            let canonical = report.to_json().pretty();
            let replay = report.counterexample_spec().map(|cx| cx.to_json().pretty());
            let rendering = rendering.elapsed();
            write(
                dir.join(format!("{}.search.json", spec.name)),
                &format!("{canonical}\n"),
            )?;
            let counterexamples = dir.join(format!("{}.counterexamples.json", spec.name));
            let bytes = canonical.len() + 1 + replay.as_ref().map_or(0, |text| text.len() + 1);
            match &replay {
                Some(text) => write(counterexamples, &format!("{text}\n"))?,
                None => remove_if_present(&counterexamples)?,
            }
            (Executed::Search(report), rendering, canonical, bytes)
        }
        Kind::Serve => {
            let report = run_serve_opts(spec, workers, None).map_err(|err| err.to_string())?;
            let rendering = Instant::now();
            let canonical = report.to_json().pretty();
            let csv = report.to_csv();
            let rendering = rendering.elapsed();
            write(
                dir.join(format!("{}.serve.report.json", spec.name)),
                &format!("{canonical}\n"),
            )?;
            write(dir.join(format!("{}.serve.report.csv", spec.name)), &csv)?;
            let bytes = canonical.len() + 1 + csv.len();
            (Executed::Serve(report), rendering, canonical, bytes)
        }
    };
    let wall_s = secs(started.elapsed());
    let mut rep = Rep {
        wall_s,
        render_s: secs(rendering),
        report_bytes: bytes,
        executions: 0,
        latencies: Vec::new(),
        busy_s: 0.0,
        replay_base_s: wall_s,
        executed,
    };
    match &rep.executed {
        Executed::Campaign(report) => {
            let records = report.records();
            rep.executions = records.len() as u64;
            rep.latencies = records.iter().map(|r| r.wall_micros).collect();
            rep.busy_s = records.iter().map(|r| r.wall_micros as f64 / 1e6).sum();
        }
        Executed::Search(report) => {
            rep.executions = report
                .cells()
                .iter()
                .map(|cell| {
                    cell.evals + cell.counterexample.as_ref().map_or(0, |cx| cx.shrink_evals)
                })
                .sum::<usize>() as u64;
            rep.busy_s = search_busy_s;
        }
        Executed::Serve(report) => {
            let lanes = report.lanes();
            rep.executions = lanes.iter().map(|lane| lane.instances.len() as u64).sum();
            rep.latencies = lanes
                .iter()
                .flat_map(|lane| lane.instances.iter().map(|i| i.wall_micros))
                .collect();
            rep.busy_s = lanes.iter().map(|lane| lane.wall_micros as f64 / 1e6).sum();
        }
    }
    Ok((rep, canonical))
}

/// The output checks of one execution (beyond its digest).
fn check_outputs(rep: &Rep, checks: &mut Checks) {
    match &rep.executed {
        Executed::Campaign(report) => {
            for record in report.records() {
                let judged = record.feasible
                    && matches!(
                        record.algorithm,
                        AlgorithmKind::Algorithm1 | AlgorithmKind::AsyncFlood
                    );
                // Algorithm 2 is left out on purpose: its documented
                // Appendix-C omission gap makes some feasible cells incorrect.
                checks.check(
                    record.status.is_completed() && (!judged || record.verdict.is_correct()),
                    || {
                        format!(
                            "cell #{} {} {} f={} {} faulty={}: {} ({})",
                            record.index,
                            record.graph,
                            record.algorithm.name(),
                            record.f,
                            record.strategy,
                            record.faulty,
                            record.verdict,
                            record.status.label()
                        )
                    },
                );
            }
        }
        Executed::Search(report) => {
            for cell in report.cells() {
                let violated = cell.best().severity.is_violation();
                checks.check(
                    !(cell.feasible && cell.algorithm == AlgorithmKind::Algorithm1 && violated),
                    || {
                        format!(
                            "feasible alg1 search cell {} f={} reports a violation",
                            cell.graph, cell.f
                        )
                    },
                );
            }
        }
        Executed::Serve(report) => {
            for lane in report.lanes() {
                checks.check(lane.channels_bounded(), || {
                    format!(
                        "serve lane {} leaks ledger channels: {:?}",
                        lane.index, lane.stats
                    )
                });
                for (k, record) in lane.instances.iter().enumerate() {
                    checks.check(record.verdict.is_correct(), || {
                        format!("serve lane {} instance {k}: {}", lane.index, record.verdict)
                    });
                }
            }
        }
    }
}

/// Every final frontier candidate of a search report, by (cell, entry).
fn frontier(report: &SearchReport) -> Vec<(usize, usize)> {
    report
        .cells()
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| (0..cell.frontier.len()).map(move |s| (c, s)))
        .collect()
}

/// Search evaluations are not timed one by one inside `run_search`, so the
/// latency samples of the search workload are the final frontier
/// candidates, each re-evaluated [`SEARCH_LATENCY_REPEATS`] times through
/// the same runner call `evaluate` makes; every evaluation must reproduce
/// the recorded severity.
fn time_search_evaluations(rep: &mut Rep, checks: &mut Checks) {
    let Executed::Search(report) = &rep.executed else {
        return;
    };
    let jobs: Vec<(usize, usize)> = frontier(report)
        .into_iter()
        .flat_map(|job| std::iter::repeat_n(job, SEARCH_LATENCY_REPEATS))
        .collect();
    let started = Instant::now();
    let results = layers::parallel_map(&jobs, WORKERS, |&(c, s)| {
        let cell = &report.cells()[c];
        let scored = &cell.frontier[s];
        let candidate = &scored.candidate;
        let graph = cell.family.build(cell.n);
        let mut adversary = candidate.strategy.clone().into_adversary();
        let started = Instant::now();
        let (outcome, trace) = runner::run_kind_under(
            cell.algorithm,
            &candidate.regime(),
            &graph,
            cell.f,
            &candidate.inputs,
            &candidate.faulty,
            &mut adversary,
        );
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let severity = Severity::of(&outcome, trace.summary());
        (micros, severity == scored.severity, cell.graph.clone())
    });
    rep.replay_base_s = secs(started.elapsed()) / SEARCH_LATENCY_REPEATS as f64;
    for (micros, reproduced, graph) in results {
        rep.latencies.push(micros);
        checks.check(reproduced, || {
            format!("search frontier replay on {graph} changed severity")
        });
    }
}

/// Per-(graph, strategy) tallies of a campaign's traced replay.
#[derive(Debug, Default)]
struct Group {
    cells: usize,
    /// From the counting pass.
    arena_paths: u64,
    deliveries: u64,
    /// From the timing pass.
    protocol_ns: u64,
}

/// The traced replay of one execution, in two passes over everything it
/// ran: a timing pass (timed hooks, no observer) and a counting pass (the
/// counting observer attached). Every replay of both passes is checked
/// against the untraced record it stands for.
struct Traced {
    timing: Totals,
    counting: Totals,
    /// Wall time of the timing pass.
    timing_wall_s: f64,
    groups: BTreeMap<(String, String), Group>,
}

type Replayed = (Totals, Result<(), String>);

/// Replays one campaign cell; it must reproduce the cell's record.
fn replay_cell(scenario: &Scenario, record: &ScenarioRecord, observe: bool) -> Replayed {
    let graph = scenario.build_graph();
    let run = Run {
        kind: scenario.algorithm,
        regime: &scenario.regime,
        graph: &graph,
        f: scenario.f,
        faulty: &scenario.faulty,
        strategy: &scenario.strategy,
        observe,
    };
    let (outcome, summary, totals) = layers::replay(&run, &scenario.inputs);
    let same = outcome.verdict() == record.verdict
        && outcome.agreed_value() == record.agreed
        && summary.rounds == record.stats.rounds
        && summary.transmissions == record.stats.transmissions
        && summary.deliveries == record.stats.deliveries;
    let verdict = if same {
        Ok(())
    } else {
        Err(format!(
            "replay of cell #{} differs: {} rounds={} tx={} deliveries={}",
            scenario.index,
            outcome.verdict(),
            summary.rounds,
            summary.transmissions,
            summary.deliveries
        ))
    };
    (totals, verdict)
}

/// Replays one final frontier candidate of a search cell; it must score
/// the severity the search recorded.
fn replay_candidate(cell: &CellOutcome, scored: &Scored, observe: bool) -> Replayed {
    let candidate = &scored.candidate;
    let graph = cell.family.build(cell.n);
    let regime = candidate.regime();
    let run = Run {
        kind: cell.algorithm,
        regime: &regime,
        graph: &graph,
        f: cell.f,
        faulty: &candidate.faulty,
        strategy: &candidate.strategy,
        observe,
    };
    let (outcome, summary, totals) = layers::replay(&run, &candidate.inputs);
    let severity = Severity::of(&outcome, summary);
    let verdict = if severity == scored.severity {
        Ok(())
    } else {
        Err(format!(
            "replay of a {} f={} frontier candidate scores {severity:?}, not {:?}",
            cell.graph, cell.f, scored.severity
        ))
    };
    (totals, verdict)
}

/// Replays serve lane `index` of `spec` as one chain, materialized the way
/// `run_serve_opts` materializes it; every instance must reproduce its
/// record.
fn replay_lane(
    spec: &CampaignSpec,
    index: usize,
    recorded: &LaneReport,
    observe: bool,
) -> Replayed {
    let Some(lane) = spec.serve.as_ref().and_then(|serve| serve.lanes.get(index)) else {
        return (
            Totals::default(),
            Err(format!("spec has no serve lane {index}")),
        );
    };
    let seed = lane_seed(spec.seed, index);
    let graph = lane.family.build(lane.n);
    let regime = lane.regime.materialize(seed);
    let strategy = lane.strategy.materialize(seed);
    let faulty: NodeSet = lane.faulty.iter().map(|&v| NodeId::new(v)).collect();
    let input_sets = match lane
        .inputs
        .assignments(lane.n, lane_inputs_seed(spec.seed, index))
    {
        Ok(sets) => sets,
        Err(err) => return (Totals::default(), Err(err.to_string())),
    };
    let run = Run {
        kind: lane.algorithm,
        regime: &regime,
        graph: &graph,
        f: lane.f,
        faulty: &faulty,
        strategy: &strategy,
        observe,
    };
    let (instances, _, totals) = layers::replay_chain(&run, &input_sets, recorded.instances.len());
    let mismatch =
        instances
            .iter()
            .zip(&recorded.instances)
            .position(|((outcome, report), record)| {
                outcome.verdict() != record.verdict
                    || report.steps != record.steps
                    || report.transmissions != record.transmissions
                    || report.deliveries != record.deliveries
            });
    let verdict = match mismatch {
        None if instances.len() == recorded.instances.len() => Ok(()),
        None => Err(format!(
            "replay of serve lane {index} ran {} instances",
            instances.len()
        )),
        Some(k) => Err(format!("replay of serve lane {index} instance {k} differs")),
    };
    (totals, verdict)
}

/// Replays every execution of `rep` once, on the workers.
fn replay_all(prepared: &Prepared, rep: &Rep, observe: bool) -> Vec<Replayed> {
    match &rep.executed {
        Executed::Campaign(report) => {
            let records = report.records();
            layers::parallel_map(&prepared.scenarios, WORKERS, |scenario| {
                replay_cell(scenario, &records[scenario.index], observe)
            })
        }
        Executed::Search(report) => layers::parallel_map(&frontier(report), WORKERS, |&(c, s)| {
            let cell = &report.cells()[c];
            replay_candidate(cell, &cell.frontier[s], observe)
        }),
        Executed::Serve(report) => {
            let lanes: Vec<usize> = (0..report.lanes().len()).collect();
            layers::parallel_map(&lanes, WORKERS, |&index| {
                replay_lane(&prepared.spec, index, &report.lanes()[index], observe)
            })
        }
    }
}

fn trace(prepared: &Prepared, rep: &Rep, checks: &mut Checks) -> Traced {
    let mut traced = Traced {
        timing: Totals::default(),
        counting: Totals::default(),
        timing_wall_s: 0.0,
        groups: BTreeMap::new(),
    };
    for observe in [false, true] {
        let started = Instant::now();
        let replayed = replay_all(prepared, rep, observe);
        if !observe {
            traced.timing_wall_s = secs(started.elapsed());
        }
        let grouped = matches!(rep.executed, Executed::Campaign(_));
        for (index, (tally, verdict)) in replayed.into_iter().enumerate() {
            checks.check(verdict.is_ok(), || verdict.err().unwrap_or_default());
            if grouped {
                let scenario = &prepared.scenarios[index];
                let group = traced
                    .groups
                    .entry((scenario.graph.clone(), scenario.strategy_name.to_string()))
                    .or_default();
                if observe {
                    group.cells += 1;
                    group.arena_paths += tally.arena_paths;
                    group.deliveries += tally.deliveries;
                } else {
                    group.protocol_ns += tally.protocol_ns;
                }
            }
            if observe {
                traced.counting.merge(&tally);
            } else {
                traced.timing.merge(&tally);
            }
        }
    }
    traced
}

/// The end-to-end metrics, from the timed repetitions of an untraced run
/// (every timing already normalized by the speed probe).
fn end_to_end(
    walls: &[f64],
    rates: &[f64],
    setups: &[f64],
    latencies: &[f64],
    peak_heap_mb: f64,
) -> Vec<Metric> {
    vec![
        ("wall_s", median(walls), "s"),
        ("setup_s", median(setups), "s"),
        ("decisions_per_s", median(rates), "1/s"),
        ("latency_p50_us", percentile(latencies, 50), "us"),
        ("latency_p90_us", percentile(latencies, 90), "us"),
        ("peak_heap_mb", peak_heap_mb, "MB"),
    ]
}

/// Rescales the timings among `metrics` by `factor` (rates inversely).
fn normalized(metrics: Vec<Metric>, factor: f64) -> Vec<Metric> {
    metrics
        .into_iter()
        .map(|(name, value, unit)| match unit {
            "s" | "ns" | "us" => (name, value * factor, unit),
            "1/s" => (name, value / factor, unit),
            _ => (name, value, unit),
        })
        .collect()
}

/// Search-only facts of one execution.
#[derive(Default)]
struct SearchFacts {
    evals: f64,
    shrink_evals: f64,
    violations: f64,
}

/// The per-layer metrics of one traced repetition.
fn per_layer(rep: &Rep, traced: &Traced, expand_s: f64) -> Vec<Metric> {
    // Times from the timing pass, counts from the counting pass.
    let (t, c) = (&traced.timing, &traced.counting);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let cells = match &rep.executed {
        Executed::Campaign(report) => report.records().len(),
        Executed::Search(report) => report.cells().len(),
        Executed::Serve(report) => report.lanes().len(),
    };
    let search = match &rep.executed {
        Executed::Search(report) => SearchFacts {
            evals: report.cells().iter().map(|c| c.evals as f64).sum(),
            shrink_evals: report
                .cells()
                .iter()
                .filter_map(|c| c.counterexample.as_ref())
                .map(|cx| cx.shrink_evals as f64)
                .sum(),
            violations: report.violations().len() as f64,
        },
        _ => SearchFacts::default(),
    };
    let network_self_s = t.network_self_ns() as f64 / 1e9;
    let protocol_s = t.protocol_ns as f64 / 1e9;
    vec![
        ("spec.expand_s", expand_s, "s"),
        ("spec.cells", cells as f64, "count"),
        ("executor.busy_s", rep.busy_s, "s"),
        (
            "executor.utilization",
            ratio(rep.busy_s, WORKERS as f64 * rep.wall_s),
            "ratio",
        ),
        (
            "executor.straggler_s",
            if rep.busy_s > 0.0 {
                (rep.wall_s - rep.busy_s / WORKERS as f64).max(0.0)
            } else {
                0.0
            },
            "s",
        ),
        ("search.evals", search.evals, "count"),
        ("search.shrink_evals", search.shrink_evals, "count"),
        (
            "search.evals_per_s",
            ratio(search.evals + search.shrink_evals, rep.wall_s),
            "1/s",
        ),
        ("search.violations", search.violations, "count"),
        ("report.render_s", rep.render_s, "s"),
        ("report.bytes", rep.report_bytes as f64, "bytes"),
        ("network.steps", t.steps as f64, "count"),
        ("network.transmissions", t.transmissions as f64, "count"),
        ("network.deliveries", t.deliveries as f64, "count"),
        ("network.scheduled", c.scheduled as f64, "count"),
        ("network.held", c.held as f64, "count"),
        ("network.burst_released", c.burst_released as f64, "count"),
        ("network.self_s", network_self_s, "s"),
        (
            "network.ns_per_delivery",
            ratio(network_self_s * 1e9, t.deliveries as f64),
            "ns",
        ),
        ("serve.drained_steps", t.drained_steps as f64, "count"),
        ("protocol.calls", t.protocol_calls as f64, "count"),
        ("protocol.busy_s", protocol_s, "s"),
        (
            "protocol.ns_per_call",
            ratio(protocol_s * 1e9, t.protocol_calls as f64),
            "ns",
        ),
        ("arena.paths", c.arena_paths as f64, "count"),
        (
            "arena.new_path_ratio",
            ratio(c.arena_paths as f64, c.deliveries as f64),
            "ratio",
        ),
        ("ledger.channels_opened", c.channels_opened as f64, "count"),
        (
            "ledger.channels_retired",
            c.channels_retired as f64,
            "count",
        ),
        ("ledger.max_allocated", c.max_allocated as f64, "count"),
        ("adversary.calls", t.adversary_calls as f64, "count"),
        ("adversary.busy_s", t.adversary_ns as f64 / 1e9, "s"),
        ("adversary.tampered", c.tampered as f64, "count"),
        ("adversary.omitted", c.omitted as f64, "count"),
        ("adversary.equivocated", c.equivocated as f64, "count"),
        ("trace.observer_s", c.observer_ns as f64 / 1e9, "s"),
        (
            "trace.overhead_frac",
            ratio(traced.timing_wall_s, rep.replay_base_s) - 1.0,
            "ratio",
        ),
    ]
}

/// The median of each metric over per-repetition rows with the same names.
fn median_rows(rows: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = rows.iter().map(|row| row[i].1).collect();
            (name, median(&values), unit)
        })
        .collect()
}

/// Measures `workload` at `seed` for about `seconds` of timed repetitions;
/// `traced` selects the per-layer pass.
///
/// # Errors
///
/// Returns a message when the spec cannot be set up or a report cannot be
/// written; failed output checks are counted in the measurement instead.
pub fn measure(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measurement, String> {
    let dir = output_dir(workload);
    fs::create_dir_all(&dir).map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    let mut slots = Vec::with_capacity(SEEDS_PER_RUN);
    for (k, input_seed) in input_seeds(seed).into_iter().enumerate() {
        let spec = workload.spec(Some(input_seed));
        let spec_path = dir.join(format!("{}.{k}.spec.json", spec.name));
        write(spec_path.clone(), &format!("{}\n", spec.to_json().pretty()))?;
        let (prepared, _, _) = set_up(workload.kind, &spec_path)?;
        slots.push(Slot {
            seed: input_seed,
            spec_path,
            prepared,
            digest: (input_seed == workload.default_seed()).then_some(workload.pinned_digest),
            last_digest: 0,
        });
    }

    let mut checks = Checks::default();
    let run_once = |checks: &mut Checks, slot: &mut Slot, workers: usize| {
        let (mut rep, canonical) = execute(workload.kind, &slot.prepared, &dir, workers)?;
        slot.last_digest = fnv1a64(canonical.as_bytes());
        checks.digest(&mut slot.digest, slot.last_digest);
        check_outputs(&rep, checks);
        time_search_evaluations(&mut rep, checks);
        Ok::<_, String>(rep)
    };

    // The first execution is untimed: it lets caches fill and lazy set-up
    // finish. It runs on one worker, so its heap peak is the largest cell's
    // (or lane's) rather than whichever two cells happened to overlap.
    heap::start();
    run_once(&mut checks, &mut slots[0], 1)?;
    let peak_heap_mb = heap::stop() as f64 / (1024.0 * 1024.0);

    let (mut walls, mut raw_walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setups, mut latencies) = (Vec::new(), Vec::new());
    let mut probes = Vec::new();
    let mut layer_rows: Vec<Vec<Metric>> = Vec::new();
    let mut own_seed_groups = BTreeMap::new();
    let started = Instant::now();
    let mut before = probe::measure(WORKERS);
    while walls.len() % SEEDS_PER_RUN != 0 || walls.is_empty() || secs(started.elapsed()) < seconds
    {
        let index = walls.len() % SEEDS_PER_RUN;
        let slot = &mut slots[index];
        // Set-ups are spread over the run like the executions, so both see
        // the same mix of machine states.
        let mut set_up_times = Vec::with_capacity(SETUPS_PER_REP);
        for _ in 0..SETUPS_PER_REP {
            let (_, whole, expanding) = set_up(workload.kind, &slot.spec_path)?;
            set_up_times.push((secs(whole), secs(expanding)));
        }
        let mut rep = run_once(&mut checks, slot, WORKERS)?;
        let replay = traced.then(|| trace(&slot.prepared, &rep, &mut checks));
        let after = probe::measure(WORKERS);
        let factor = probe::REFERENCE_S / ((before + after) / 2.0);
        probes.push(before);
        before = after;

        let expand_s = median(
            &set_up_times
                .iter()
                .map(|&(_, expanding)| expanding)
                .collect::<Vec<_>>(),
        );
        setups.extend(set_up_times.iter().map(|&(whole, _)| whole * factor));
        raw_walls.push(rep.wall_s);
        walls.push(rep.wall_s * factor);
        rates.push(rep.executions as f64 / rep.wall_s / factor);
        latencies.extend(rep.latencies.iter().map(|&micros| micros as f64 * factor));
        if let Some(replay) = replay {
            layer_rows.push(normalized(per_layer(&rep, &replay, expand_s), factor));
            if index == 0 {
                own_seed_groups = replay.groups;
            }
        }
        rep.latencies.clear();
    }
    let measured_s = secs(started.elapsed());

    let mut lines = vec![format!(
        "workload {} (seed {seed}): {} timed repetitions over {SEEDS_PER_RUN} input seeds in {measured_s:.1} s on {WORKERS} workers{}",
        workload.name,
        walls.len(),
        if traced { ", traced" } else { "" }
    )];
    for slot in &slots {
        let pinned = if slot.seed == workload.default_seed() {
            format!("pinned {:016x}", workload.pinned_digest)
        } else {
            "no pin at this seed".to_string()
        };
        lines.push(format!(
            "  input seed {}: report_digest {:016x} ({pinned})",
            slot.seed, slot.last_digest
        ));
    }
    lines.push(format!(
        "  speed probe median {:.4} s (reference {} s); unnormalized wall_s median {:.4} s",
        median(&probes),
        probe::REFERENCE_S,
        median(&raw_walls)
    ));
    let beyond = |p: usize| {
        let cut = percentile(&latencies, p);
        latencies.iter().filter(|&&l| l > cut).count()
    };
    lines.push(format!(
        "  latency samples {} ({} per repetition): {} beyond p50, {} beyond p90",
        latencies.len(),
        latencies.len() / walls.len(),
        beyond(50),
        beyond(90)
    ));
    let e2e = end_to_end(&walls, &rates, &setups, &latencies, peak_heap_mb);
    let metrics = if traced {
        for ((graph, strategy), group) in &own_seed_groups {
            lines.push(format!(
                "  group {graph} {strategy}: cells={} arena.paths={} protocol.busy_s={:.6} deliveries={}",
                group.cells,
                group.arena_paths,
                group.protocol_ns as f64 / 1e9,
                group.deliveries
            ));
        }
        for (name, value, unit) in &e2e {
            lines.push(format!(
                "  (untraced timing under tracing) {name} {value} {unit}"
            ));
        }
        median_rows(&layer_rows)
    } else {
        e2e
    };
    lines.push(format!(
        "  checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    ));
    lines.extend(
        checks
            .messages
            .iter()
            .map(|message| format!("  FAILED: {message}")),
    );
    Ok(Measurement {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare;
    use lbc_campaign::{run_scenario, run_scenario_observed};

    /// Every algorithm under every regime it runs in, on small graphs.
    const REGIME_GRID: &str = r#"{
      "name": "replay-grid",
      "seed": 5,
      "sweeps": [
        {
          "family": {"kind": "fig1a"},
          "sizes": {"list": [5]},
          "f": 1,
          "algorithms": ["alg1", "alg2", "p2p"],
          "strategies": ["tamper-relays", "equivocate", "silent"],
          "faults": {"policy": "random", "count": 2},
          "inputs": {"policy": "random", "count": 2}
        },
        {
          "family": {"kind": "circulant", "offsets": [1, 2]},
          "sizes": {"list": [9]},
          "f": 1,
          "algorithms": ["async"],
          "regimes": [
            "sync",
            {"kind": "async", "scheduler": "edge-lag", "delay": 3},
            {"kind": "partial-sync", "gst": 6, "hold": [2], "scheduler": "fifo", "delay": 2}
          ],
          "strategies": ["tamper-relays", "equivocate", "silent"],
          "faults": {"policy": "random", "count": 2},
          "inputs": {"policy": "random", "count": 1}
        }
      ]
    }"#;

    fn grid() -> Vec<Scenario> {
        let scenarios = CampaignSpec::from_json_text(REGIME_GRID)
            .unwrap()
            .expand()
            .unwrap();
        let covered: std::collections::BTreeSet<(&str, String)> = scenarios
            .iter()
            .map(|s| (s.algorithm.name(), s.regime.label()))
            .collect();
        assert_eq!(covered.len(), 6, "{covered:?}");
        scenarios
    }

    fn run_of<'a>(scenario: &'a Scenario, graph: &'a lbc_graph::Graph, observe: bool) -> Run<'a> {
        Run {
            kind: scenario.algorithm,
            regime: &scenario.regime,
            graph,
            f: scenario.f,
            faulty: &scenario.faulty,
            strategy: &scenario.strategy,
            observe,
        }
    }

    #[test]
    fn timed_replays_reproduce_run_scenario() {
        for scenario in grid() {
            let graph = scenario.build_graph();
            // Unobserved runs count no interference; observed ones do.
            let plain = run_scenario(&scenario);
            let (observed, _) = run_scenario_observed(&scenario);
            for (observe, record) in [(false, &plain), (true, &observed)] {
                let (outcome, summary, _) =
                    layers::replay(&run_of(&scenario, &graph, observe), &scenario.inputs);
                assert_eq!(
                    summary, record.stats,
                    "cell #{} observe={observe}",
                    scenario.index
                );
                assert_eq!(
                    outcome.verdict(),
                    record.verdict,
                    "cell #{}",
                    scenario.index
                );
                assert_eq!(replay_cell(&scenario, record, observe).1, Ok(()));
            }
        }
    }

    #[test]
    fn counting_observer_totals_equal_trace_totals() {
        for scenario in grid() {
            let graph = scenario.build_graph();
            let (_, summary, totals) =
                layers::replay(&run_of(&scenario, &graph, true), &scenario.inputs);
            let cell = format!("cell #{}", scenario.index);
            assert_eq!(
                totals.observed_transmissions, summary.transmissions as u64,
                "{cell}"
            );
            assert_eq!(
                totals.observed_deliveries, summary.deliveries as u64,
                "{cell}"
            );
            assert_eq!(
                totals.burst_released, summary.burst_deliveries as u64,
                "{cell}"
            );
            // A trace files interference under the round its transmissions
            // are delivered in; the last collection's is never delivered,
            // so only the events count it.
            assert!(totals.tampered >= summary.tampered as u64, "{cell}");
            assert!(totals.omitted >= summary.omitted as u64, "{cell}");
            assert!(totals.equivocated >= summary.equivocated as u64, "{cell}");
            assert!(totals.arena_paths > 0, "{cell}");
            assert!(
                totals.protocol_calls > 0 && totals.protocol_ns > 0,
                "{cell}"
            );
            // Without the observer only the timers run.
            let (_, _, quiet) = layers::replay(&run_of(&scenario, &graph, false), &scenario.inputs);
            assert_eq!(
                (quiet.observed_deliveries, quiet.observer_ns),
                (0, 0),
                "{cell}"
            );
        }
    }

    #[test]
    fn serve_lane_replays_reproduce_instance_records() {
        let spec = CampaignSpec::from_json_text(
            r#"{
              "name": "replay-serve",
              "seed": 3,
              "sweeps": [],
              "serve": {
                "instances": 20,
                "lanes": [
                  {"family": {"kind": "fig1a"}, "n": 5, "f": 1, "algorithm": "alg1",
                   "strategy": "tamper-relays", "faulty": [2],
                   "inputs": {"policy": "random", "count": 4}},
                  {"family": {"kind": "fig1b"}, "n": 9, "f": 1, "algorithm": "async",
                   "regime": {"kind": "async", "scheduler": "edge-lag", "delay": 3},
                   "strategy": "silent", "faulty": [3],
                   "inputs": {"policy": "random", "count": 4}}
                ]
              }
            }"#,
        )
        .unwrap();
        let report = run_serve_opts(&spec, 1, None).unwrap();
        for (index, lane) in report.lanes().iter().enumerate() {
            assert_eq!(lane.instances.len(), 20);
            for observe in [false, true] {
                let (totals, verdict) = replay_lane(&spec, index, lane, observe);
                assert_eq!(verdict, Ok(()), "lane {index} observe={observe}");
                let steps: usize = lane.instances.iter().map(|i| i.steps).sum();
                assert_eq!(totals.steps, steps as u64);
                assert_eq!(totals.drained_steps, lane.stats.drained_steps as u64);
                assert_eq!(totals.arena_paths, lane.stats.arena_paths as u64);
                if observe {
                    // Every instance opens its own channels and the chain
                    // retires them behind it.
                    assert!(totals.channels_opened >= 20, "lane {index}");
                    assert!(totals.channels_retired > 0, "lane {index}");
                }
            }
        }
    }

    #[test]
    fn process_cpu_time_counts_work() {
        let before = process_cpu_s().expect("/proc/self/stat is readable");
        let started = Instant::now();
        let mut state = 1_u64;
        while started.elapsed() < Duration::from_millis(200) {
            state = std::hint::black_box(state.wrapping_mul(6_364_136_223_846_793_005) + 1);
        }
        let used = process_cpu_s().unwrap() - before;
        assert!(used > 0.05, "{used}");
    }

    #[test]
    fn another_seed_changes_the_scenarios_not_the_cell_counts() {
        for workload in &WORKLOADS {
            let own = workload.spec(None);
            let other = workload.spec(Some(own.seed + 1));
            match workload.kind {
                Kind::Campaign | Kind::Search => {
                    let (a, b) = (own.expand().unwrap(), other.expand().unwrap());
                    assert_eq!(a.len(), b.len(), "{}", workload.name);
                    assert!(
                        a.iter().zip(&b).all(|(x, y)| x.seed != y.seed),
                        "{}",
                        workload.name
                    );
                    if workload.kind == Kind::Campaign {
                        assert!(
                            a.iter()
                                .zip(&b)
                                .any(|(x, y)| x.inputs != y.inputs || x.faulty != y.faulty),
                            "{}",
                            workload.name
                        );
                    } else {
                        let plan =
                            |spec: &CampaignSpec| render_search_plan(spec).unwrap().lines().count();
                        assert_eq!(plan(&own), plan(&other), "{}", workload.name);
                    }
                }
                Kind::Serve => {
                    let lanes = |spec: &CampaignSpec| spec.serve.as_ref().unwrap().lanes.len();
                    assert_eq!(lanes(&own), lanes(&other));
                    assert_ne!(lane_seed(own.seed, 0), lane_seed(other.seed, 0));
                }
            }
        }
    }

    #[test]
    fn input_seeds_start_at_the_run_seed_and_fit_a_spec() {
        for seed in [0, 7, 2107, 1 << 53] {
            let seeds = input_seeds(seed);
            assert_eq!(seeds.len(), SEEDS_PER_RUN);
            assert_eq!(seeds[0], seed);
            assert!(seeds[1..].iter().all(|&s| s < 1 << 53), "{seeds:?}");
            let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
            assert_eq!(distinct.len(), SEEDS_PER_RUN, "{seeds:?}");
            assert_eq!(input_seeds(seed), seeds);
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let names = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics
                .into_iter()
                .map(|(name, value, unit)| {
                    assert!(value.is_finite(), "{name}");
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        assert_eq!(
            names(end_to_end(&[1.0], &[1.0], &[1.0], &[1.0], 1.0)),
            compare::listed("end_to_end")
        );
        let rep = Rep {
            wall_s: 1.0,
            render_s: 0.0,
            report_bytes: 0,
            executions: 0,
            latencies: Vec::new(),
            busy_s: 0.0,
            replay_base_s: 1.0,
            executed: Executed::Campaign(CampaignReport::new("empty".to_string(), 0, Vec::new())),
        };
        let traced = Traced {
            timing: Totals::default(),
            counting: Totals::default(),
            timing_wall_s: 0.0,
            groups: BTreeMap::new(),
        };
        assert_eq!(
            names(per_layer(&rep, &traced, 0.0)),
            compare::listed("per_layer")
        );
        let listed: Vec<String> = compare::listed("workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let known: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, known);
        assert!(compare::bounds()
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
