//! The repeated-consensus **service core** (`lbc serve`): chained
//! multi-instance lanes, each pumped over one long-lived network.
//!
//! A campaign cell answers "does one execution decide correctly?"; a serve
//! lane answers "what does it cost to decide *again and again*?". Each
//! [`ServeLaneSpec`] fixes one `(graph, f, algorithm, regime, strategy,
//! faults)` configuration and runs `instances` consecutive consensus
//! instances through [`lbc_consensus::runner::run_chain_under`]: instance
//! `k + 1` starts while instance `k`'s flood tail drains, every instance is
//! isolated on its own `(tag, epoch)` ledger session, and the path arena,
//! disjoint-path plans, and pair-path memos stay warm across instances.
//!
//! The determinism contract matches the campaign executor's: lanes are the
//! worker-parallelism unit, every lane derives its seeds from the campaign
//! seed and its own index at expansion time, and the canonical JSON report
//! ([`ServeReport::to_json`]) carries no wall-clock fields — it is
//! byte-identical at any worker count. Measured per-instance latencies and
//! decisions/sec travel in the CSV and the stdout summary only.

use std::fmt::Write as _;
use std::time::Instant;

use lbc_adversary::Strategy;
use lbc_consensus::runner::{self, AlgorithmKind};
use lbc_graph::Graph;
use lbc_model::json::{FromJson, Json, JsonError, ToJson};
use lbc_model::{InputAssignment, NodeId, NodeSet, Regime, Value, Verdict};
use lbc_sim::ChainStats;

use crate::pool;
use crate::spec::{
    mix_seed, CampaignSpec, GraphFamily, InputPolicy, RegimeSpec, SpecError, StrategySpec,
    SALT_SERVE,
};

/// Hard cap on `lanes × instances`, guarding against accidentally huge
/// service runs the same way [`crate::spec::MAX_SCENARIOS`] guards grids.
pub const MAX_SERVE_INSTANCES: usize = 1_000_000;

// ---------------------------------------------------------------------------
// spec
// ---------------------------------------------------------------------------

/// The `"serve"` block of a campaign spec: how many consecutive consensus
/// instances to pump through each lane.
///
/// JSON: `{"instances": 200, "lanes": [{...}, ...]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    /// Consecutive instances per lane (the CLI `--instances` flag
    /// overrides this).
    pub instances: usize,
    /// The lane configurations, run in parallel across workers.
    pub lanes: Vec<ServeLaneSpec>,
}

/// One service lane: a fixed `(graph, f, algorithm, regime, strategy,
/// faults, inputs)` configuration whose instances share one long-lived
/// network.
///
/// JSON: `{"family": {"kind": "fig1b"}, "n": 9, "f": 1, "algorithm":
/// "async", "regime": "sync", "strategy": "silent", "faulty": [3],
/// "inputs": {"policy": "random", "count": 64}}` — `regime` defaults to
/// `"sync"`, `strategy` to `"honest"`, `faulty` to `[]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeLaneSpec {
    /// The graph family.
    pub family: GraphFamily,
    /// The instance size.
    pub n: usize,
    /// The declared fault bound.
    pub f: usize,
    /// The algorithm every instance runs.
    pub algorithm: AlgorithmKind,
    /// The execution regime (seedless specs derive the schedule seed from
    /// the lane seed).
    pub regime: RegimeSpec,
    /// The adversary strategy driving the faulty nodes across *all*
    /// instances of the lane.
    pub strategy: StrategySpec,
    /// The faulty node indices.
    pub faulty: Vec<usize>,
    /// The input-assignment policy; instance `k` uses assignment
    /// `k mod |assignments|` of the policy's deterministic expansion.
    pub inputs: InputPolicy,
}

impl ToJson for ServeLaneSpec {
    fn to_json(&self) -> Json {
        Json::object([
            ("family", self.family.to_json()),
            ("n", self.n.to_json()),
            ("f", self.f.to_json()),
            ("algorithm", Json::Str(self.algorithm.name().to_string())),
            ("regime", self.regime.to_json()),
            ("strategy", self.strategy.to_json()),
            (
                "faulty",
                Json::Arr(self.faulty.iter().map(|v| (*v as u64).to_json()).collect()),
            ),
            ("inputs", self.inputs.to_json()),
        ])
    }
}

impl FromJson for ServeLaneSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("serve lane missing '{key}'"),
            })
        };
        let algorithm_name = field("algorithm")?.as_str().ok_or_else(|| JsonError {
            message: "serve lane 'algorithm' must be a string".to_string(),
        })?;
        Ok(ServeLaneSpec {
            family: GraphFamily::from_json(field("family")?)?,
            n: usize::from_json(field("n")?)?,
            f: usize::from_json(field("f")?)?,
            algorithm: AlgorithmKind::from_name(algorithm_name).ok_or_else(|| JsonError {
                message: format!("serve lane names unknown algorithm '{algorithm_name}'"),
            })?,
            regime: value
                .get("regime")
                .map_or(Ok(RegimeSpec::Sync), RegimeSpec::from_json)?,
            strategy: value
                .get("strategy")
                .map_or(Ok(StrategySpec::Honest), StrategySpec::from_json)?,
            faulty: value
                .get("faulty")
                .map_or(Ok(Vec::new()), Vec::<usize>::from_json)?,
            inputs: InputPolicy::from_json(field("inputs")?)?,
        })
    }
}

impl ToJson for ServeSpec {
    fn to_json(&self) -> Json {
        Json::object([
            ("instances", self.instances.to_json()),
            (
                "lanes",
                Json::Arr(self.lanes.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for ServeSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("serve block missing '{key}'"),
            })
        };
        Ok(ServeSpec {
            instances: usize::from_json(field("instances")?)?,
            lanes: Vec::<ServeLaneSpec>::from_json(field("lanes")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// expansion
// ---------------------------------------------------------------------------

/// A fully materialized lane, fixed at expansion time on one thread:
/// everything a worker needs, no shared mutable state.
struct LaneJob {
    index: usize,
    family: String,
    label: String,
    graph: Graph,
    n: usize,
    f: usize,
    algorithm: AlgorithmKind,
    regime: Regime,
    regime_label: String,
    strategy: Strategy,
    strategy_name: &'static str,
    faulty: NodeSet,
    input_sets: Vec<InputAssignment>,
    seed: u64,
}

fn expand_lanes(
    spec: &CampaignSpec,
    serve: &ServeSpec,
    instances: usize,
) -> Result<Vec<LaneJob>, SpecError> {
    if instances == 0 {
        return Err(SpecError::new("serve requires at least one instance"));
    }
    if serve.lanes.is_empty() {
        return Err(SpecError::new("serve block has no lanes"));
    }
    if serve
        .lanes
        .len()
        .checked_mul(instances)
        .is_none_or(|total| total > MAX_SERVE_INSTANCES)
    {
        return Err(SpecError::new(format!(
            "serve expands past {MAX_SERVE_INSTANCES} total instances"
        )));
    }
    let mut jobs = Vec::with_capacity(serve.lanes.len());
    for (index, lane) in serve.lanes.iter().enumerate() {
        lane.family.check(lane.n)?;
        let seed = mix_seed(&[SALT_SERVE, spec.seed, index as u64]);
        let regime = lane.regime.materialize(seed);
        if !lane.algorithm.supports_regime(&regime) {
            return Err(SpecError::new(format!(
                "serve lane {index}: algorithm '{}' is a synchronous round machine and \
                 cannot run under regime '{}'",
                lane.algorithm.name(),
                lane.regime.label()
            )));
        }
        let mut faulty = NodeSet::new();
        for &node in &lane.faulty {
            if node >= lane.n {
                return Err(SpecError::new(format!(
                    "serve lane {index}: faulty node {node} is out of range for n = {}",
                    lane.n
                )));
            }
            faulty.insert(NodeId::new(node));
        }
        let input_sets = lane
            .inputs
            .assignments(lane.n, mix_seed(&[SALT_SERVE, spec.seed, index as u64, 1]))?;
        jobs.push(LaneJob {
            index,
            family: lane.family.name().to_string(),
            label: lane.family.label(lane.n),
            graph: lane.family.build(lane.n),
            n: lane.n,
            f: lane.f,
            algorithm: lane.algorithm,
            regime,
            regime_label: lane.regime.label(),
            strategy: lane.strategy.materialize(seed),
            strategy_name: lane.strategy.name(),
            faulty,
            input_sets,
            seed,
        });
    }
    Ok(jobs)
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

/// One judged instance of a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceRecord {
    /// The judged verdict.
    pub verdict: Verdict,
    /// The agreed value, when agreement holds.
    pub agreed: Option<Value>,
    /// Steps (lockstep rounds or scheduler steps) the instance consumed.
    pub steps: usize,
    /// Transmissions emitted by the instance, including its drain tail.
    pub transmissions: usize,
    /// Deliveries of the instance's transmissions.
    pub deliveries: usize,
    /// Measured instance latency in microseconds (CSV/summary only; never
    /// in the canonical JSON).
    pub wall_micros: u64,
}

impl InstanceRecord {
    fn to_canonical_json(&self) -> Json {
        Json::object([
            ("agreement", Json::Bool(self.verdict.agreement)),
            ("validity", Json::Bool(self.verdict.validity)),
            ("termination", Json::Bool(self.verdict.termination)),
            ("correct", Json::Bool(self.verdict.is_correct())),
            (
                "agreed",
                self.agreed.map_or(Json::Null, |value| value.to_json()),
            ),
            ("steps", self.steps.to_json()),
            ("transmissions", self.transmissions.to_json()),
            ("deliveries", self.deliveries.to_json()),
        ])
    }
}

/// The completed run of one lane: per-instance records plus the chain-wide
/// resource high-water marks.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// Lane position in the spec.
    pub index: usize,
    /// Graph family name.
    pub family: String,
    /// Graph instance label (e.g. `C9(1,2)`).
    pub graph: String,
    /// Number of nodes.
    pub n: usize,
    /// Declared fault bound.
    pub f: usize,
    /// Algorithm executed.
    pub algorithm: AlgorithmKind,
    /// The regime's grouping label.
    pub regime: String,
    /// Strategy name driving the faulty nodes.
    pub strategy: String,
    /// The faulty set.
    pub faulty: NodeSet,
    /// The derived lane seed.
    pub seed: u64,
    /// The per-instance records, in instance order.
    pub instances: Vec<InstanceRecord>,
    /// The chain's resource high-water marks (all deterministic).
    pub stats: ChainStats,
    /// Measured lane wall time in microseconds (CSV/summary only).
    pub wall_micros: u64,
}

impl LaneReport {
    /// How many instances decided correctly.
    #[must_use]
    pub fn correct(&self) -> usize {
        self.instances
            .iter()
            .filter(|record| record.verdict.is_correct())
            .count()
    }

    /// Whether every instance decided correctly.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.correct() == self.instances.len()
    }

    /// The cross-instance channel-isolation check: per-tag live channels
    /// bounded by the two-epoch retirement window (≤ 2) and total allocated
    /// slots bounded by 3 per tag — recycling, not growth, across the chain.
    #[must_use]
    pub fn channels_bounded(&self) -> bool {
        self.stats.max_live_per_tag <= 2
            && self.stats.max_allocated_channels <= 3 * self.stats.live_tags.max(1)
    }

    /// The `p`-th percentile (nearest-rank) of per-instance step counts —
    /// deterministic, so it lives in the canonical report.
    #[must_use]
    pub fn steps_percentile(&self, p: usize) -> usize {
        percentile(self.instances.iter().map(|record| record.steps), p)
    }

    /// The `p`-th percentile (nearest-rank) of measured per-instance
    /// latencies in microseconds (summary/CSV surface only).
    #[must_use]
    pub fn latency_percentile(&self, p: usize) -> u64 {
        percentile(self.instances.iter().map(|record| record.wall_micros), p)
    }

    fn to_canonical_json(&self) -> Json {
        Json::object([
            ("lane", self.index.to_json()),
            ("family", self.family.to_json()),
            ("graph", self.graph.to_json()),
            ("n", self.n.to_json()),
            ("f", self.f.to_json()),
            ("algorithm", Json::Str(self.algorithm.name().to_string())),
            ("regime", self.regime.to_json()),
            ("strategy", self.strategy.to_json()),
            ("faulty", self.faulty.to_json()),
            // A string, like every other 64-bit seed in report surfaces.
            ("seed", Json::Str(self.seed.to_string())),
            ("correct", self.correct().to_json()),
            ("all_correct", Json::Bool(self.all_correct())),
            ("steps_p50", self.steps_percentile(50).to_json()),
            ("steps_p99", self.steps_percentile(99).to_json()),
            (
                "chain",
                Json::object([
                    ("max_live_channels", self.stats.max_live_channels.to_json()),
                    (
                        "max_allocated_channels",
                        self.stats.max_allocated_channels.to_json(),
                    ),
                    ("max_live_per_tag", self.stats.max_live_per_tag.to_json()),
                    ("live_tags", self.stats.live_tags.to_json()),
                    ("arena_paths", self.stats.arena_paths.to_json()),
                    ("drained_steps", self.stats.drained_steps.to_json()),
                    ("channels_bounded", Json::Bool(self.channels_bounded())),
                ]),
            ),
            (
                "instances",
                Json::Arr(
                    self.instances
                        .iter()
                        .map(InstanceRecord::to_canonical_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// The completed service run: every lane's report under one name and seed.
#[derive(Debug, Clone)]
pub struct ServeReport {
    name: String,
    seed: u64,
    instances: usize,
    lanes: Vec<LaneReport>,
    /// Overall run wall time (all lanes, as scheduled) in microseconds.
    wall_micros: u64,
}

impl ServeReport {
    /// The campaign name the run was configured from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instances pumped per lane.
    #[must_use]
    pub fn instances_per_lane(&self) -> usize {
        self.instances
    }

    /// The per-lane reports, in spec order.
    #[must_use]
    pub fn lanes(&self) -> &[LaneReport] {
        &self.lanes
    }

    /// Whether every instance of every lane decided correctly.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.lanes.iter().all(LaneReport::all_correct)
    }

    /// Whether every lane kept its ledger channels bounded across the chain.
    #[must_use]
    pub fn channels_bounded(&self) -> bool {
        self.lanes.iter().all(LaneReport::channels_bounded)
    }

    /// Total correctly decided instances across all lanes.
    #[must_use]
    pub fn total_decisions(&self) -> usize {
        self.lanes.iter().map(LaneReport::correct).sum()
    }

    /// The overall measured wall time in microseconds (summary only).
    #[must_use]
    pub fn total_wall_micros(&self) -> u64 {
        self.wall_micros
    }

    /// The **canonical** report: every deterministic field, no wall-clock
    /// measurements — byte-identical at any worker count.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("seed", Json::Str(self.seed.to_string())),
            ("instances", self.instances.to_json()),
            ("all_correct", Json::Bool(self.all_correct())),
            ("channels_bounded", Json::Bool(self.channels_bounded())),
            (
                "lanes",
                Json::Arr(
                    self.lanes
                        .iter()
                        .map(LaneReport::to_canonical_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// The flat per-instance CSV, including the measured `wall_micros`
    /// column (explicitly outside the byte-identical contract).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "lane,instance,family,graph,n,f,algorithm,regime,strategy,correct,agreed,\
             steps,transmissions,deliveries,wall_micros\n",
        );
        for lane in &self.lanes {
            for (k, record) in lane.instances.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    lane.index,
                    k,
                    lane.family,
                    lane.graph,
                    lane.n,
                    lane.f,
                    lane.algorithm.name(),
                    lane.regime,
                    lane.strategy,
                    record.verdict.is_correct(),
                    record
                        .agreed
                        .map_or_else(|| "-".to_string(), |value| value.to_string()),
                    record.steps,
                    record.transmissions,
                    record.deliveries,
                    record.wall_micros,
                );
            }
        }
        out
    }

    /// The human-facing stdout summary: per-lane verdict tallies, step and
    /// latency percentiles, and decisions/sec (wall-clock based, outside
    /// the byte-identical contract).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve '{}' (seed {}): {} lanes x {} instances",
            self.name,
            self.seed,
            self.lanes.len(),
            self.instances
        );
        for lane in &self.lanes {
            let secs = lane.wall_micros as f64 / 1e6;
            let rate = if secs > 0.0 {
                lane.correct() as f64 / secs
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  lane {} {} {} {} {} f={}: {}/{} correct, steps p50={} p99={}, \
                 latency p50={}us p99={}us, {:.1} decisions/s, channels \
                 live/tag<={} alloc<={}{}",
                lane.index,
                lane.graph,
                lane.algorithm.name(),
                lane.regime,
                lane.strategy,
                lane.f,
                lane.correct(),
                lane.instances.len(),
                lane.steps_percentile(50),
                lane.steps_percentile(99),
                lane.latency_percentile(50),
                lane.latency_percentile(99),
                rate,
                lane.stats.max_live_per_tag,
                lane.stats.max_allocated_channels,
                if lane.channels_bounded() {
                    ""
                } else {
                    " [UNBOUNDED]"
                },
            );
        }
        let secs = self.wall_micros as f64 / 1e6;
        let rate = if secs > 0.0 {
            self.total_decisions() as f64 / secs
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  total: {} decisions in {:.2}s - {:.1} decisions/s",
            self.total_decisions(),
            secs,
            rate
        );
        out
    }
}

/// Nearest-rank percentile of an unsorted sequence (0 for an empty one).
fn percentile<T: Ord + Copy + Default>(values: impl Iterator<Item = T>, p: usize) -> T {
    let mut sorted: Vec<T> = values.collect();
    if sorted.is_empty() {
        return T::default();
    }
    sorted.sort_unstable();
    let rank = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

// ---------------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------------

/// Runs the spec's `"serve"` block with the configured instance count, or
/// with `instances_override` instances per lane (the CLI `--instances`
/// flag).
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec has no serve block, the instance
/// count is zero, or a lane is invalid (bad family/size, out-of-range
/// fault, regime mismatch).
pub fn run_serve_opts(
    spec: &CampaignSpec,
    workers: usize,
    instances_override: Option<usize>,
) -> Result<ServeReport, SpecError> {
    let serve = spec
        .serve
        .as_ref()
        .ok_or_else(|| SpecError::new("spec has no 'serve' block"))?;
    let instances = instances_override.unwrap_or(serve.instances);
    let jobs = expand_lanes(spec, serve, instances)?;
    let started = Instant::now();
    let lanes = pool::run_ordered(workers, jobs.len(), |_, index| {
        run_lane(&jobs[index], instances)
    });
    Ok(ServeReport {
        name: spec.name.clone(),
        seed: spec.seed,
        instances,
        lanes,
        wall_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    })
}

/// Pumps one lane's chain to completion and judges every instance.
fn run_lane(job: &LaneJob, instances: usize) -> LaneReport {
    let mut adversary = job.strategy.clone().into_adversary();
    let sets = &job.input_sets;
    // Instance-boundary timestamps: the chain driver calls the re-arm
    // closure once per instance (k = 0 before the network spins up, then at
    // every handover), so consecutive marks bracket one instance's wall
    // time — including its share of the previous tail's overlap drain.
    let mut marks: Vec<Instant> = Vec::with_capacity(instances);
    let started = Instant::now();
    let (results, stats) = runner::run_chain_under(
        job.algorithm,
        &job.regime,
        &job.graph,
        job.f,
        &job.faulty,
        instances,
        |k| {
            marks.push(Instant::now());
            sets[(k as usize) % sets.len()].clone()
        },
        &mut adversary,
    );
    let finished = Instant::now();
    let records = results
        .into_iter()
        .enumerate()
        .map(|(k, result)| {
            let from = marks.get(k).copied().unwrap_or(started);
            let to = marks.get(k + 1).copied().unwrap_or(finished);
            InstanceRecord {
                verdict: result.outcome.verdict(),
                agreed: result.outcome.agreed_value(),
                steps: result.steps,
                transmissions: result.transmissions,
                deliveries: result.deliveries,
                wall_micros: u64::try_from(to.duration_since(from).as_micros()).unwrap_or(u64::MAX),
            }
        })
        .collect();
    LaneReport {
        index: job.index,
        family: job.family.clone(),
        graph: job.label.clone(),
        n: job.n,
        f: job.f,
        algorithm: job.algorithm,
        regime: job.regime_label.clone(),
        strategy: job.strategy_name.to_string(),
        faulty: job.faulty.clone(),
        seed: job.seed,
        instances: records,
        stats,
        wall_micros: u64::try_from(finished.duration_since(started).as_micros())
            .unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FRange, FaultPolicy, SizeSpec, SweepSpec};

    fn serve_spec() -> CampaignSpec {
        CampaignSpec {
            name: "serve-unit".to_string(),
            seed: 21,
            sweeps: vec![SweepSpec {
                family: GraphFamily::Fig1a,
                sizes: SizeSpec::List(vec![5]),
                f: FRange::exactly(1),
                algorithms: vec![AlgorithmKind::Algorithm2],
                regimes: RegimeSpec::default_axis(),
                strategies: vec![StrategySpec::Honest],
                faults: FaultPolicy::Exhaustive,
                inputs: InputPolicy::Alternating,
            }],
            search: None,
            limits: None,
            serve: Some(ServeSpec {
                instances: 6,
                lanes: vec![
                    ServeLaneSpec {
                        family: GraphFamily::Fig1a,
                        n: 5,
                        f: 1,
                        algorithm: AlgorithmKind::Algorithm1,
                        regime: RegimeSpec::Sync,
                        strategy: StrategySpec::Silent,
                        faulty: vec![2],
                        inputs: InputPolicy::Random { count: 4 },
                    },
                    ServeLaneSpec {
                        family: GraphFamily::Fig1b,
                        n: 9,
                        f: 1,
                        algorithm: AlgorithmKind::AsyncFlood,
                        regime: RegimeSpec::Async {
                            scheduler: lbc_model::SchedulerKind::EdgeLag,
                            delay: 3,
                            seed: None,
                        },
                        strategy: StrategySpec::Honest,
                        faulty: vec![4],
                        inputs: InputPolicy::SplitHalf,
                    },
                ],
            }),
        }
    }

    #[test]
    fn serve_spec_roundtrips_through_json() {
        let spec = serve_spec();
        let json = spec.to_json().to_string();
        let reparsed = CampaignSpec::from_json_text(&json).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn serve_runs_every_lane_and_instance_correctly() {
        let report = run_serve_opts(&serve_spec(), 2, None).unwrap();
        assert_eq!(report.lanes().len(), 2);
        for lane in report.lanes() {
            assert_eq!(lane.instances.len(), 6);
            assert!(lane.all_correct(), "lane {}", lane.index);
            assert!(
                lane.channels_bounded(),
                "lane {}: {:?}",
                lane.index,
                lane.stats
            );
        }
        assert!(report.all_correct());
        assert_eq!(report.total_decisions(), 12);
    }

    #[test]
    fn serve_canonical_report_is_worker_count_invariant() {
        let spec = serve_spec();
        let one = run_serve_opts(&spec, 1, None)
            .unwrap()
            .to_json()
            .to_string();
        let many = run_serve_opts(&spec, 8, None)
            .unwrap()
            .to_json()
            .to_string();
        assert_eq!(one, many);
    }

    #[test]
    fn serve_instances_override_and_errors() {
        let spec = serve_spec();
        let report = run_serve_opts(&spec, 1, Some(2)).unwrap();
        assert_eq!(report.instances_per_lane(), 2);
        assert!(run_serve_opts(&spec, 1, Some(0)).is_err());
        let mut bare = spec.clone();
        bare.serve = None;
        assert!(run_serve_opts(&bare, 1, None).is_err());
        let mut bad = spec.clone();
        bad.serve.as_mut().unwrap().lanes[0].faulty = vec![99];
        assert!(run_serve_opts(&bad, 1, None).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile([1usize, 2, 3, 4].into_iter(), 50), 2);
        assert_eq!(percentile([1usize, 2, 3, 4].into_iter(), 99), 4);
        assert_eq!(percentile(std::iter::empty::<usize>(), 50), 0);
        assert_eq!(percentile([7u64].into_iter(), 99), 7);
    }
}
