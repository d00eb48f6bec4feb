//! Per-cell worst-case adversary search.
//!
//! The grid executor ([`crate::executor`]) evaluates the *declared* strategy
//! × placement × input grid of a spec. The paper's impossibility results are
//! statements about the **worst** adversary, though — a fixed grid only ever
//! witnesses the adversaries someone thought to write down. This module
//! hunts for the worst adversary of every `(graph, f, algorithm)` **cell**:
//!
//! * **Seeded frontier** — the sweep's declared strategies (materialized
//!   with derived seeds), the full built-in [`Strategy::all`] catalogue, the
//!   worst-case boundary placement plus the sweep's own placements, and the
//!   sweep's input assignments (always including the alternating pattern).
//! * **Beam search** — each round mutates every frontier survivor
//!   [`SearchSpec::mutations`] times (swap a faulty node, tweak or switch
//!   the strategy via [`Strategy::mutations`], flip one input bit; async
//!   cells add the schedule knobs, partial-sync cells additionally co-mutate
//!   the GST and the pre-GST hold-set via
//!   [`schedule::gst_mutations`]), scores
//!   the batch, and keeps the [`SearchSpec::beam`] most severe candidates.
//! * **Severity** — executions are ranked by [`Severity`]: consensus
//!   violations first (agreement over validity over termination), then the
//!   near-miss dissent margin (honest nodes outside the largest agreeing
//!   bloc), then rounds-to-decide, then message volume.
//! * **Determinism** — every random draw comes from seeds derived per cell
//!   (and per round) from the campaign seed, so the canonical report is
//!   byte-identical at any worker count, and a resumed search replays the
//!   exact mutation schedule a one-shot run would have produced.
//! * **Budget & resume** — the per-cell evaluation budget is spent in whole
//!   rounds (a round that would overshoot is not started, and the cell is
//!   marked `exhausted`). The canonical report serializes each cell's
//!   frontier, so `lbc search --resume` continues exactly where the budget
//!   ran out: resuming with a larger budget equals the one-shot run at that
//!   budget whenever the seed round fit the original budget.
//! * **Minimization** — the best violating candidate is greedily shrunk
//!   (drop faulty nodes, simplify the strategy along
//!   [`Strategy::simplifications`], clear input bits) into a minimal
//!   counterexample, emitted as a **replayable spec fragment**: a one-cell
//!   sweep with fixed faults, explicit strategy seed and a `bits` input
//!   that `lbc campaign` re-executes verbatim.

use std::fmt::Write as _;

use lbc_adversary::{schedule, Strategy};
use lbc_consensus::{conditions, runner, AlgorithmKind};
use lbc_graph::Graph;
use lbc_model::fx::{FxHashMap, FxHashSet};
use lbc_model::json::{u64_from_number_or_string, FromJson, Json, JsonError, ToJson};
use lbc_model::{
    AsyncRegime, ConsensusOutcome, InputAssignment, NodeId, NodeSet, Regime, Value, Verdict,
};
use lbc_sim::TraceSummary;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pool;
use crate::spec::{
    mix_seed, CampaignSpec, FRange, FaultPolicy, GraphFamily, InputPolicy, RegimeSpec, SizeSpec,
    SpecError, StrategySpec, SweepSpec,
};

/// Hard cap on the per-cell evaluation budget, protecting against runaway
/// specs the same way [`crate::spec::MAX_SCENARIOS`] protects grids.
pub const MAX_SEARCH_BUDGET: usize = 100_000;

/// How many of a sweep's fault placements seed the frontier (the worst-case
/// boundary placement is always added on top).
const MAX_SEED_PLACEMENTS: usize = 4;

/// How many of a sweep's input assignments seed the frontier (the
/// alternating pattern is always added on top).
const MAX_SEED_INPUTS: usize = 3;

const SALT_CELL: u64 = 0x5EA0;
const SALT_SCHEDULE: u64 = 0x5EA5;
const SALT_ROUND: u64 = 0x5EA1;
const SALT_STRATEGY: u64 = 0x5EA2;
const SALT_FAULTS: u64 = 0x5EA3;
const SALT_INPUTS: u64 = 0x5EA4;

// ---------------------------------------------------------------------------
// search configuration
// ---------------------------------------------------------------------------

/// The `search` block of a campaign spec: per-cell search knobs.
///
/// JSON: `{"budget": 160, "beam": 4, "mutations": 6, "rounds": 8}` — every
/// field optional, defaulting to the values of [`SearchSpec::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchSpec {
    /// Maximum scored executions per cell (seed round + mutation rounds;
    /// counterexample shrinking has its own budget of the same size).
    pub budget: usize,
    /// Frontier width kept between mutation rounds.
    pub beam: usize,
    /// Mutated candidates derived from each frontier entry per round.
    pub mutations: usize,
    /// Maximum number of mutation rounds after the seed round.
    pub rounds: usize,
}

impl Default for SearchSpec {
    fn default() -> Self {
        SearchSpec {
            budget: 160,
            beam: 4,
            mutations: 6,
            rounds: 8,
        }
    }
}

impl SearchSpec {
    /// Validates the knobs against zero values and [`MAX_SEARCH_BUDGET`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.budget == 0 || self.beam == 0 || self.mutations == 0 {
            return Err(SpecError::new(
                "search requires budget, beam and mutations >= 1",
            ));
        }
        if self.budget > MAX_SEARCH_BUDGET {
            return Err(SpecError::new(format!(
                "search budget {} exceeds the cap of {MAX_SEARCH_BUDGET}",
                self.budget
            )));
        }
        Ok(())
    }
}

impl ToJson for SearchSpec {
    fn to_json(&self) -> Json {
        Json::object([
            ("budget", self.budget.to_json()),
            ("beam", self.beam.to_json()),
            ("mutations", self.mutations.to_json()),
            ("rounds", self.rounds.to_json()),
        ])
    }
}

impl FromJson for SearchSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let defaults = SearchSpec::default();
        let knob =
            |key: &str, fallback: usize| value.get(key).map_or(Ok(fallback), usize::from_json);
        Ok(SearchSpec {
            budget: knob("budget", defaults.budget)?,
            beam: knob("beam", defaults.beam)?,
            mutations: knob("mutations", defaults.mutations)?,
            rounds: knob("rounds", defaults.rounds)?,
        })
    }
}

// ---------------------------------------------------------------------------
// severity
// ---------------------------------------------------------------------------

/// The worst-case ranking of one execution, ordered lexicographically worst
/// first: `violation` (weighted bitmask: missing agreement 4, validity 2,
/// termination 1), then `dissent` (the near-miss margin: honest nodes
/// outside the largest agreeing bloc — undecided honest nodes count), then
/// `rounds`, then `volume` (transmissions + deliveries). The derived `Ord`
/// *is* the severity order: `a > b` means `a` is more severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Severity {
    /// Weighted bitmask of violated consensus conditions.
    pub violation: u8,
    /// Honest nodes outside the largest agreeing bloc.
    pub dissent: usize,
    /// Rounds the execution took.
    pub rounds: usize,
    /// Total transmissions plus deliveries.
    pub volume: usize,
}

impl Severity {
    /// Whether the execution violated at least one consensus condition.
    #[must_use]
    pub fn is_violation(&self) -> bool {
        self.violation != 0
    }

    /// Derives the severity of one judged execution.
    #[must_use]
    pub fn of(outcome: &ConsensusOutcome, stats: TraceSummary) -> Self {
        let verdict = outcome.verdict();
        let violation = (u8::from(!verdict.agreement) << 2)
            | (u8::from(!verdict.validity) << 1)
            | u8::from(!verdict.termination);
        let honest = outcome.non_faulty_nodes().len();
        let mut zeros = 0usize;
        let mut ones = 0usize;
        for (_, value) in outcome.non_faulty_outputs() {
            match value {
                Value::Zero => zeros += 1,
                Value::One => ones += 1,
            }
        }
        Severity {
            violation,
            dissent: honest.saturating_sub(zeros.max(ones)),
            rounds: stats.rounds,
            volume: stats.transmissions + stats.deliveries,
        }
    }

    /// The verdict encoded in the `violation` bitmask.
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        Verdict {
            agreement: self.violation & 4 == 0,
            validity: self.violation & 2 == 0,
            termination: self.violation & 1 == 0,
        }
    }
}

impl ToJson for Severity {
    fn to_json(&self) -> Json {
        Json::object([
            ("violation", u64::from(self.violation).to_json()),
            ("dissent", self.dissent.to_json()),
            ("rounds", self.rounds.to_json()),
            ("volume", self.volume.to_json()),
        ])
    }
}

impl FromJson for Severity {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("severity missing '{key}'"),
            })
        };
        Ok(Severity {
            violation: u8::try_from(u64::from_json(field("violation")?)?).map_err(|_| {
                JsonError {
                    message: "severity 'violation' out of range".to_string(),
                }
            })?,
            dissent: usize::from_json(field("dissent")?)?,
            rounds: usize::from_json(field("rounds")?)?,
            volume: usize::from_json(field("volume")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// candidates
// ---------------------------------------------------------------------------

/// One point of the joint adversary space: a concrete (pre-seeded) strategy,
/// a fault placement, an input assignment, and — for asynchronous and
/// partially synchronous cells — a concrete delivery schedule, plus the
/// timing attack (GST + pre-GST hold-set) for partial synchrony.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The concrete adversary strategy.
    pub strategy: Strategy,
    /// The faulty set (size at most the cell's declared `f`).
    pub faulty: NodeSet,
    /// The input assignment.
    pub inputs: InputAssignment,
    /// The concrete asynchronous schedule (always `Some` for async and
    /// partial-sync cells — the post-GST schedule for the latter — `None`
    /// for synchronous ones). The schedule is part of the adversary:
    /// mutation rounds turn its knobs exactly like strategy knobs.
    pub schedule: Option<AsyncRegime>,
    /// The timing attack (always `Some` for partial-sync cells, `None`
    /// otherwise): the adversary's GST and pre-GST hold-set, co-mutated by
    /// the search toward the violation boundary.
    pub timing: Option<schedule::GstAttack>,
}

impl Candidate {
    /// A canonical identity string, used for deduplication and stable
    /// tie-breaking of equally severe candidates.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.strategy.to_json(),
            self.faulty,
            self.inputs,
            self.regime().to_json(),
        )
    }

    /// The regime this candidate executes under.
    #[must_use]
    pub fn regime(&self) -> Regime {
        match (self.schedule, self.timing) {
            (None, _) => Regime::Synchronous,
            (Some(config), None) => Regime::Asynchronous(config),
            (Some(config), Some(attack)) => schedule::gst_as_regime(&attack, &config),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("strategy", self.strategy.to_json()),
            ("faulty", self.faulty.to_json()),
            ("inputs", Json::Str(self.inputs.to_string())),
        ];
        if self.schedule.is_some() {
            fields.push(("schedule", self.regime().to_json()));
        }
        Json::object(fields)
    }

    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("candidate missing '{key}'"),
            })
        };
        let (schedule, timing) = match value.get("schedule") {
            None | Some(Json::Null) => (None, None),
            Some(json) => match Regime::from_json(json)? {
                Regime::Synchronous => (None, None),
                Regime::Asynchronous(config) => (Some(config), None),
                Regime::PartialSync { gst, pre, post } => (
                    Some(post),
                    Some(schedule::GstAttack {
                        gst,
                        hold: pre.hold,
                    }),
                ),
            },
        };
        Ok(Candidate {
            strategy: Strategy::from_json(field("strategy")?)?,
            faulty: NodeSet::from_json(field("faulty")?)?,
            inputs: inputs_from_str(field("inputs")?.as_str().ok_or_else(|| JsonError {
                message: "candidate 'inputs' must be a bit string".to_string(),
            })?)?,
            schedule,
            timing,
        })
    }
}

/// Parses the bit-string form of an input assignment (node 0 first), the
/// inverse of its `Display`.
fn inputs_from_str(text: &str) -> Result<InputAssignment, JsonError> {
    let values = text
        .chars()
        .map(|c| match c {
            '0' => Ok(Value::Zero),
            '1' => Ok(Value::One),
            other => Err(JsonError {
                message: format!("invalid input bit '{other}'"),
            }),
        })
        .collect::<Result<Vec<Value>, JsonError>>()?;
    Ok(InputAssignment::from_values(values))
}

/// A candidate together with its measured severity.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// The evaluated candidate.
    pub candidate: Candidate,
    /// Its severity under the cell's algorithm.
    pub severity: Severity,
    /// The agreed value, when agreement held.
    pub agreed: Option<Value>,
}

impl Scored {
    fn to_json(&self) -> Json {
        let mut fields = match self.candidate.to_json() {
            Json::Obj(fields) => fields,
            _ => unreachable!("candidates serialize to objects"),
        };
        fields.push(("severity".to_string(), self.severity.to_json()));
        fields.push((
            "agreed".to_string(),
            self.agreed.map_or(Json::Null, |value| value.to_json()),
        ));
        Json::Obj(fields)
    }

    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Scored {
            candidate: Candidate::from_json(value)?,
            severity: Severity::from_json(value.get("severity").ok_or_else(|| JsonError {
                message: "scored candidate missing 'severity'".to_string(),
            })?)?,
            agreed: match value.get("agreed") {
                None | Some(Json::Null) => None,
                Some(json) => Some(match json.as_u64() {
                    Some(0) => Value::Zero,
                    Some(1) => Value::One,
                    _ => {
                        return Err(JsonError {
                            message: "'agreed' must be 0, 1 or null".to_string(),
                        })
                    }
                }),
            },
        })
    }
}

// ---------------------------------------------------------------------------
// cells
// ---------------------------------------------------------------------------

/// One search cell: a concrete `(graph instance, f, algorithm)` with its
/// seeded frontier, assembled deterministically from the spec's sweeps
/// (cells repeated by several sweeps are merged, first appearance wins the
/// position).
#[derive(Debug, Clone)]
struct CellPlan {
    family: GraphFamily,
    label: String,
    n: usize,
    f: usize,
    algorithm: AlgorithmKind,
    /// The declared regime of the cell; async cells additionally explore
    /// the schedule space through their candidates.
    regime: RegimeSpec,
    feasible: bool,
    cell_seed: u64,
    seeds: Vec<Candidate>,
}

impl CellPlan {
    /// The base schedule async (and partial-sync: the post-GST half)
    /// candidates start from (the cell's declared regime materialized with
    /// a cell-derived seed).
    fn base_schedule(&self) -> Option<AsyncRegime> {
        match self
            .regime
            .materialize(mix_seed(&[SALT_SCHEDULE, self.cell_seed]))
        {
            Regime::Synchronous => None,
            Regime::Asynchronous(config) => Some(config),
            Regime::PartialSync { post, .. } => Some(post),
        }
    }

    /// The base timing attack partial-sync candidates start from (the
    /// cell's declared GST and hold-set); `None` for the other regimes.
    fn base_timing(&self) -> Option<schedule::GstAttack> {
        match self
            .regime
            .materialize(mix_seed(&[SALT_SCHEDULE, self.cell_seed]))
        {
            Regime::PartialSync { gst, pre, .. } => Some(schedule::GstAttack {
                gst,
                hold: pre.hold,
            }),
            Regime::Synchronous | Regime::Asynchronous(_) => None,
        }
    }
}

/// The serializable per-cell search state: everything needed to continue
/// the mutation schedule exactly where a budgeted run stopped.
#[derive(Debug, Clone, PartialEq)]
struct CellState {
    frontier: Vec<Scored>,
    evals: usize,
    rounds_done: usize,
}

/// The final outcome of one cell's search.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The graph family (kept for replay fragments).
    pub family: GraphFamily,
    /// The instance label (e.g. `C13`).
    pub graph: String,
    /// Number of nodes.
    pub n: usize,
    /// Declared fault bound.
    pub f: usize,
    /// The algorithm under attack.
    pub algorithm: AlgorithmKind,
    /// The declared regime of the cell.
    pub regime: RegimeSpec,
    /// Whether the paper's conditions admit this cell.
    pub feasible: bool,
    /// Scored executions spent (seed + mutation rounds).
    pub evals: usize,
    /// Mutation rounds completed after the seed round.
    pub rounds_done: usize,
    /// Whether the budget stopped the search before the round cap.
    pub exhausted: bool,
    /// The frontier, most severe first.
    pub frontier: Vec<Scored>,
    /// The minimized counterexample, when the best candidate violates.
    pub counterexample: Option<Counterexample>,
}

impl CellOutcome {
    /// The most severe candidate found.
    #[must_use]
    pub fn best(&self) -> &Scored {
        &self.frontier[0]
    }

    /// The replayable one-cell sweep reproducing the minimized
    /// counterexample, if one was found. `lbc campaign` executes it
    /// verbatim (sizes are far below the `bits` policy's 53-bit limit).
    #[must_use]
    pub fn replay_fragment(&self) -> Option<SweepSpec> {
        let shrunk = &self.counterexample.as_ref()?.scored.candidate;
        if self.n > 64 {
            // The `bits` input policy carries at most 64 nodes; beyond that
            // there is no replayable encoding, so the counterexample ships
            // in the report without a fragment rather than with a corrupt
            // one (a shift past bit 63 would wrap).
            return None;
        }
        let bits = (0..self.n)
            .filter(|&i| shrunk.inputs.get(NodeId::new(i)) == Value::One)
            .fold(0u64, |acc, i| acc | (1 << i));
        Some(SweepSpec {
            family: self.family.clone(),
            sizes: SizeSpec::List(vec![self.n]),
            f: FRange::exactly(self.f),
            algorithms: vec![self.algorithm],
            // The minimized schedule replays with its seed pinned, so the
            // fragment is self-contained for async cells too.
            regimes: vec![match (shrunk.schedule, shrunk.timing) {
                (None, _) => RegimeSpec::Sync,
                (Some(config), None) => RegimeSpec::Async {
                    scheduler: config.scheduler,
                    delay: config.delay,
                    seed: Some(config.seed),
                },
                (Some(config), Some(attack)) => RegimeSpec::PartialSync {
                    gst: attack.gst,
                    hold: attack.schedule(),
                    scheduler: config.scheduler,
                    delay: config.delay,
                    seed: Some(config.seed),
                },
            }],
            strategies: vec![strategy_to_spec(&shrunk.strategy)],
            // `explicit`, not `fixed`: the minimized fault set is usually
            // smaller than the cell's declared `f`, which the algorithm must
            // still be configured with to reproduce the run.
            faults: FaultPolicy::Explicit(vec![shrunk.faulty.iter().map(NodeId::index).collect()]),
            inputs: InputPolicy::Bits(bits),
        })
    }
}

/// A minimized violating candidate and the shrinking cost.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The greedily minimized candidate (still violating).
    pub scored: Scored,
    /// Extra evaluations spent shrinking (outside the search budget).
    pub shrink_evals: usize,
}

/// Converts a concrete strategy back into its declarative spec form with
/// every seed explicit, so replay fragments are self-contained.
#[must_use]
pub fn strategy_to_spec(strategy: &Strategy) -> StrategySpec {
    match strategy {
        Strategy::Honest => StrategySpec::Honest,
        Strategy::Silent => StrategySpec::Silent,
        Strategy::CrashAfter(round) => StrategySpec::CrashAfter(*round),
        Strategy::TamperAll => StrategySpec::TamperAll,
        Strategy::TamperRelays => StrategySpec::TamperRelays,
        Strategy::Equivocate => StrategySpec::Equivocate,
        Strategy::Random { seed } => StrategySpec::Random { seed: Some(*seed) },
        Strategy::SleeperTamper { honest_rounds } => StrategySpec::Sleeper {
            honest_rounds: *honest_rounds,
        },
        Strategy::StraddleTamper => StrategySpec::StraddleTamper,
        Strategy::GstEquivocate => StrategySpec::GstEquivocate,
        Strategy::CrashRecover {
            down_from,
            down_for,
        } => StrategySpec::CrashRecover {
            down_from: *down_from,
            down_for: *down_for,
        },
    }
}

// ---------------------------------------------------------------------------
// cell construction
// ---------------------------------------------------------------------------

fn build_cells(spec: &CampaignSpec) -> Result<Vec<CellPlan>, SpecError> {
    if spec.sweeps.is_empty() {
        return Err(SpecError::new("campaign has no sweeps"));
    }
    let mut cells: Vec<CellPlan> = Vec::new();
    let mut index_of: FxHashMap<(String, usize, &'static str, String), usize> =
        FxHashMap::default();
    let mut seen_keys: Vec<FxHashSet<String>> = Vec::new();
    for sweep in &spec.sweeps {
        if sweep.algorithms.is_empty() {
            return Err(SpecError::new("sweep needs at least one algorithm"));
        }
        if sweep.regimes.is_empty() {
            return Err(SpecError::new("sweep has an empty regime list"));
        }
        if sweep.sizes.values().is_empty() {
            return Err(SpecError::new("sweep has an empty size list"));
        }
        for n in sweep.sizes.values() {
            sweep.family.check(n)?;
            let graph = sweep.family.build(n);
            for f in sweep.f.from..=sweep.f.to {
                for &algorithm in &sweep.algorithms {
                    for regime in &sweep.regimes {
                        if !regime.is_sync() && !algorithm.supports_regime(&regime.materialize(0)) {
                            return Err(SpecError::new(format!(
                                "algorithm '{}' cannot run under regime '{}'",
                                algorithm.name(),
                                regime.label()
                            )));
                        }
                        let label = sweep.family.label(n);
                        // Cells dedup on the *full* regime spec (canonical
                        // JSON), not the seedless label: two axis entries
                        // differing only in their explicit schedule seed are
                        // distinct search cells, not duplicates.
                        let key = (
                            label.clone(),
                            f,
                            algorithm.name(),
                            regime.to_json().to_string(),
                        );
                        let cell_index = *index_of.entry(key).or_insert_with(|| {
                            let cell_seed = mix_seed(&[
                                SALT_CELL,
                                spec.seed,
                                cells.len() as u64,
                                n as u64,
                                f as u64,
                            ]);
                            cells.push(CellPlan {
                                family: sweep.family.clone(),
                                label,
                                n,
                                f,
                                algorithm,
                                regime: regime.clone(),
                                feasible: feasibility(&graph, f, algorithm),
                                cell_seed,
                                seeds: Vec::new(),
                            });
                            seen_keys.push(FxHashSet::default());
                            cells.len() - 1
                        });
                        seed_cell(
                            &mut cells[cell_index],
                            &mut seen_keys[cell_index],
                            sweep,
                            &graph,
                        )?;
                    }
                }
            }
        }
    }
    Ok(cells)
}

fn feasibility(graph: &Graph, f: usize, algorithm: AlgorithmKind) -> bool {
    match algorithm {
        AlgorithmKind::Algorithm1 => conditions::local_broadcast_feasible(graph, f),
        AlgorithmKind::Algorithm2 => conditions::efficient_algorithm_applicable(graph, f),
        AlgorithmKind::P2pBaseline => conditions::point_to_point_feasible(graph, f),
        AlgorithmKind::AsyncFlood => conditions::asynchronous_feasible(graph, f),
    }
}

/// Appends one sweep's contribution to a cell's seeded frontier: declared
/// strategies plus the built-in catalogue, the worst-case placement plus the
/// sweep's own placements, and the sweep's inputs plus the alternating
/// pattern — deduplicated against everything already seeded.
fn seed_cell(
    cell: &mut CellPlan,
    seen: &mut FxHashSet<String>,
    sweep: &SweepSpec,
    graph: &Graph,
) -> Result<(), SpecError> {
    let cell_seed = cell.cell_seed;
    let mut strategies: Vec<Strategy> = Vec::new();
    for (position, declared) in sweep.strategies.iter().enumerate() {
        let seed = mix_seed(&[SALT_STRATEGY, cell_seed, position as u64]);
        let strategy = declared.materialize(seed);
        if !strategies.contains(&strategy) {
            strategies.push(strategy);
        }
    }
    for built_in in Strategy::all(mix_seed(&[SALT_STRATEGY, cell_seed, u64::MAX])) {
        if !strategies.contains(&built_in) {
            strategies.push(built_in);
        }
    }
    // Partial-sync cells are the only ones where the scheduler-aware
    // strategies differ from their fixed catalogue cousins; seeding them
    // elsewhere would only burn budget on duplicates.
    let base_timing = cell.base_timing();
    if base_timing.is_some() {
        for gst_strategy in Strategy::gst_aware() {
            if !strategies.contains(&gst_strategy) {
                strategies.push(gst_strategy);
            }
        }
    }

    let mut placements: Vec<NodeSet> = Vec::new();
    let (worst, _) = FaultPolicy::WorstCase.placements_noted(
        graph,
        cell.f,
        mix_seed(&[SALT_FAULTS, cell_seed]),
    )?;
    placements.extend(worst);
    // Declared-policy errors propagate: a spec whose placements `lbc
    // campaign` would reject must not silently degrade to a worst-case-only
    // frontier under `lbc search`.
    let (declared, _) =
        sweep
            .faults
            .placements_noted(graph, cell.f, mix_seed(&[SALT_FAULTS, cell_seed]))?;
    for placement in declared.into_iter().take(MAX_SEED_PLACEMENTS) {
        if !placements.contains(&placement) {
            placements.push(placement);
        }
    }

    let mut inputs: Vec<InputAssignment> = Vec::new();
    let declared_inputs = sweep
        .inputs
        .assignments(cell.n, mix_seed(&[SALT_INPUTS, cell_seed]))?;
    for assignment in declared_inputs.into_iter().take(MAX_SEED_INPUTS) {
        if !inputs.contains(&assignment) {
            inputs.push(assignment);
        }
    }
    // One definition of "alternating": the policy's own expansion (the
    // seed argument is unused by this deterministic policy).
    let mut alternating = InputPolicy::Alternating.assignments(cell.n, 0)?;
    let alternating = alternating.remove(0);
    if !inputs.contains(&alternating) {
        inputs.push(alternating);
    }

    // Async cells additionally seed the schedule dimension: the cell's own
    // declared schedule first, then the adversarial schedule catalogue.
    let mut schedules: Vec<Option<AsyncRegime>> = vec![cell.base_schedule()];
    if let Some(base) = cell.base_schedule() {
        for extra in schedule::catalogue(mix_seed(&[SALT_SCHEDULE, cell_seed, 1])) {
            let extra = Some(extra);
            if extra != Some(base) && !schedules.contains(&extra) {
                schedules.push(extra);
            }
        }
    }

    // Partial-sync cells seed the timing dimension on top: the declared
    // attack plus its catalogue variants. For the other regimes the axis is
    // the single `None`, leaving their seed order untouched.
    let timings: Vec<Option<schedule::GstAttack>> = match base_timing {
        None => vec![None],
        Some(base) => schedule::gst_catalogue(&base)
            .into_iter()
            .map(Some)
            .collect(),
    };

    for strategy in &strategies {
        for placement in &placements {
            for assignment in &inputs {
                for schedule in &schedules {
                    for timing in &timings {
                        let candidate = Candidate {
                            strategy: strategy.clone(),
                            faulty: placement.clone(),
                            inputs: assignment.clone(),
                            schedule: *schedule,
                            timing: *timing,
                        };
                        if seen.insert(candidate.key()) {
                            cell.seeds.push(candidate);
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// evaluation and mutation
// ---------------------------------------------------------------------------

fn evaluate(graph: &Graph, cell: &CellPlan, candidate: Candidate) -> Scored {
    let mut adversary = candidate.strategy.clone().into_adversary();
    let (outcome, trace) = runner::run_kind_under(
        cell.algorithm,
        &candidate.regime(),
        graph,
        cell.f,
        &candidate.inputs,
        &candidate.faulty,
        &mut adversary,
    );
    Scored {
        severity: Severity::of(&outcome, trace.summary()),
        agreed: outcome.agreed_value(),
        candidate,
    }
}

/// Derives one mutated candidate. Every RNG draw happens unconditionally for
/// the chosen operator, so the schedule is identical whether or not the
/// result later turns out to be a duplicate.
fn mutate(cell: &CellPlan, rng: &mut ChaCha8Rng, parent: &Candidate) -> Candidate {
    let n = cell.n;
    let mut candidate = parent.clone();
    // Sync cells draw from the original three operators so pre-regime
    // searches replay identically; async cells add the schedule knobs as a
    // fourth dimension of the same joint space, and partial-sync cells add
    // the GST/hold-set co-mutation as a fifth. The count is a function of
    // the cell kind alone, so every regime's mutation schedule stays
    // replayable.
    let operators = if parent.timing.is_some() {
        5u32
    } else if parent.schedule.is_some() {
        4u32
    } else {
        3u32
    };
    match rng.gen_range(0..operators) {
        // Swap one faulty node for a currently honest one.
        0 => {
            let members: Vec<NodeId> = candidate.faulty.iter().collect();
            let outsiders: Vec<NodeId> = (0..n)
                .map(NodeId::new)
                .filter(|&v| !candidate.faulty.contains(v))
                .collect();
            if members.is_empty() || outsiders.is_empty() {
                // Degenerate placements (no faults, or all faulty): fall
                // through to an input flip so the draw still perturbs.
                let node = NodeId::new(rng.gen_range(0..n));
                candidate
                    .inputs
                    .set(node, candidate.inputs.get(node).flipped());
            } else {
                let out = members[rng.gen_range(0..members.len())];
                let into = outsiders[rng.gen_range(0..outsiders.len())];
                candidate.faulty.remove(out);
                candidate.faulty.insert(into);
            }
        }
        // Tweak a strategy knob or switch the strategy kind.
        1 => {
            let reseed = rng.next_u64();
            let neighborhood = candidate.strategy.mutations(reseed);
            candidate.strategy = neighborhood[rng.gen_range(0..neighborhood.len())].clone();
        }
        // Flip one input bit.
        2 => {
            let node = NodeId::new(rng.gen_range(0..n));
            candidate
                .inputs
                .set(node, candidate.inputs.get(node).flipped());
        }
        // Turn a schedule knob (async and partial-sync cells): delay,
        // scheduler kind, or the schedule seed.
        3 => {
            let reseed = rng.next_u64();
            let current = candidate.schedule.expect("operator 3 requires a schedule");
            let neighborhood = schedule::mutations(&current, reseed);
            candidate.schedule = Some(neighborhood[rng.gen_range(0..neighborhood.len())]);
        }
        // Co-mutate the timing attack (partial-sync cells only): move the
        // GST and flip hold bits toward the violation boundary.
        _ => {
            let reseed = rng.next_u64();
            let current = candidate
                .timing
                .expect("operator 4 requires a timing attack");
            let neighborhood = schedule::gst_mutations(&current, n, reseed);
            candidate.timing = Some(neighborhood[rng.gen_range(0..neighborhood.len())]);
        }
    }
    candidate
}

/// Merges scored candidates into a beam: most severe first, key order as the
/// deterministic tie-break, duplicates dropped. Keys are rendered once per
/// element, not per comparison.
fn select_beam(pool: Vec<Scored>, beam: usize) -> Vec<Scored> {
    let mut keyed: Vec<(String, Scored)> = pool
        .into_iter()
        .map(|scored| (scored.candidate.key(), scored))
        .collect();
    keyed.sort_by(|(a_key, a), (b_key, b)| {
        b.severity.cmp(&a.severity).then_with(|| a_key.cmp(b_key))
    });
    let mut seen: FxHashSet<String> = FxHashSet::default();
    keyed.retain(|(key, _)| seen.insert(key.clone()));
    keyed.truncate(beam);
    keyed.into_iter().map(|(_, scored)| scored).collect()
}

// ---------------------------------------------------------------------------
// the per-cell search
// ---------------------------------------------------------------------------

fn search_cell(cell: &CellPlan, search: &SearchSpec, resume: Option<CellState>) -> CellOutcome {
    let graph = cell.family.build(cell.n);
    let mut state = resume.unwrap_or_else(|| {
        // Seed round: evaluate the seeded frontier (truncated to the budget;
        // resume cannot recover seeds a smaller original budget skipped).
        let seeds: Vec<Candidate> = cell.seeds.iter().take(search.budget).cloned().collect();
        let evals = seeds.len();
        let scored: Vec<Scored> = seeds
            .into_iter()
            .map(|candidate| evaluate(&graph, cell, candidate))
            .collect();
        CellState {
            frontier: select_beam(scored, search.beam),
            evals,
            rounds_done: 0,
        }
    });

    let mut exhausted = false;
    while state.rounds_done < search.rounds && !state.frontier.is_empty() {
        let round = state.rounds_done + 1;
        let mut rng =
            ChaCha8Rng::seed_from_u64(mix_seed(&[SALT_ROUND, cell.cell_seed, round as u64]));
        let mut seen: FxHashSet<String> = state
            .frontier
            .iter()
            .map(|scored| scored.candidate.key())
            .collect();
        let mut batch: Vec<Candidate> = Vec::new();
        for scored in &state.frontier {
            for _ in 0..search.mutations {
                let candidate = mutate(cell, &mut rng, &scored.candidate);
                if seen.insert(candidate.key()) {
                    batch.push(candidate);
                }
            }
        }
        if batch.is_empty() {
            // Every mutation re-derived a frontier member; the round is done
            // (and cost nothing).
            state.rounds_done = round;
            continue;
        }
        if state.evals + batch.len() > search.budget {
            // Budget is spent in whole rounds so a resumed run replays the
            // identical schedule; a partial round would make resume depend
            // on where exactly the cut fell.
            exhausted = true;
            break;
        }
        state.evals += batch.len();
        let mut pool = state.frontier.clone();
        pool.extend(
            batch
                .into_iter()
                .map(|candidate| evaluate(&graph, cell, candidate)),
        );
        state.frontier = select_beam(pool, search.beam);
        state.rounds_done = round;
    }

    let counterexample = state
        .frontier
        .first()
        .filter(|best| best.severity.is_violation())
        .map(|best| minimize(&graph, cell, best, search.budget));

    CellOutcome {
        family: cell.family.clone(),
        graph: cell.label.clone(),
        n: cell.n,
        f: cell.f,
        algorithm: cell.algorithm,
        regime: cell.regime.clone(),
        feasible: cell.feasible,
        evals: state.evals,
        rounds_done: state.rounds_done,
        exhausted,
        frontier: state.frontier,
        counterexample,
    }
}

/// Greedily shrinks a violating candidate: drop faulty nodes, simplify the
/// strategy along [`Strategy::simplifications`], then clear input bits
/// low-index first — accepting each step only if the execution still
/// violates. Wholly deterministic, bounded by `shrink_budget` evaluations.
fn minimize(graph: &Graph, cell: &CellPlan, best: &Scored, shrink_budget: usize) -> Counterexample {
    let mut current = best.clone();
    let mut evals = 0usize;

    // 1. Drop faulty nodes one at a time while the violation survives.
    loop {
        let mut shrunk = false;
        for node in current.candidate.faulty.iter().collect::<Vec<_>>() {
            if current.candidate.faulty.len() <= 1 || evals >= shrink_budget {
                break;
            }
            let mut trial = current.candidate.clone();
            trial.faulty.remove(node);
            let scored = evaluate(graph, cell, trial);
            evals += 1;
            if scored.severity.is_violation() {
                current = scored;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }

    // 2. Substitute strictly simpler strategies, simplest first; the first
    //    one that still violates is minimal for this fault set.
    for simpler in current.candidate.strategy.simplifications() {
        if evals >= shrink_budget {
            break;
        }
        let mut trial = current.candidate.clone();
        trial.strategy = simpler;
        let scored = evaluate(graph, cell, trial);
        evals += 1;
        if scored.severity.is_violation() {
            current = scored;
            break;
        }
    }

    // 3. Substitute strictly simpler schedules (toward lag-1 FIFO) while
    //    the violation survives — a violation surviving the trivial
    //    schedule is schedule-independent, the strongest finding.
    if let Some(current_schedule) = current.candidate.schedule {
        for simpler in schedule::simplifications(&current_schedule) {
            if evals >= shrink_budget {
                break;
            }
            let mut trial = current.candidate.clone();
            trial.schedule = Some(simpler);
            let scored = evaluate(graph, cell, trial);
            evals += 1;
            if scored.severity.is_violation() {
                current = scored;
                break;
            }
        }
    }

    // 4. Shrink the timing attack toward the earliest GST and the smallest
    //    hold-set that still violate. Each accepted step strictly lowers
    //    [`schedule::gst_complexity_rank`], so the loop terminates.
    while let Some(current_timing) = current.candidate.timing {
        let mut shrunk = false;
        for simpler in schedule::gst_simplifications(&current_timing) {
            if evals >= shrink_budget {
                break;
            }
            let mut trial = current.candidate.clone();
            trial.timing = Some(simpler);
            let scored = evaluate(graph, cell, trial);
            evals += 1;
            if scored.severity.is_violation() {
                current = scored;
                shrunk = true;
                break;
            }
        }
        if !shrunk || evals >= shrink_budget {
            break;
        }
    }

    // 5. Clear set input bits low-index first while the violation survives.
    for index in 0..cell.n {
        if evals >= shrink_budget {
            break;
        }
        let node = NodeId::new(index);
        if current.candidate.inputs.get(node) != Value::One {
            continue;
        }
        let mut trial = current.candidate.clone();
        trial.inputs.set(node, Value::Zero);
        let scored = evaluate(graph, cell, trial);
        evals += 1;
        if scored.severity.is_violation() {
            current = scored;
        }
    }

    Counterexample {
        scored: current,
        shrink_evals: evals,
    }
}

// ---------------------------------------------------------------------------
// the search report
// ---------------------------------------------------------------------------

/// The aggregated, canonical result of one `lbc search` run.
#[derive(Debug, Clone)]
pub struct SearchReport {
    name: String,
    seed: u64,
    search: SearchSpec,
    cells: Vec<CellOutcome>,
}

impl SearchReport {
    /// The campaign name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-cell outcomes, in cell order.
    #[must_use]
    pub fn cells(&self) -> &[CellOutcome] {
        &self.cells
    }

    /// Cells whose best candidate violates a consensus condition.
    #[must_use]
    pub fn violations(&self) -> Vec<&CellOutcome> {
        self.cells
            .iter()
            .filter(|cell| cell.best().severity.is_violation())
            .collect()
    }

    /// A replayable campaign spec containing one sweep per minimized
    /// counterexample, or `None` when no cell violated. Running it through
    /// `lbc campaign --strict` re-exhibits every violation.
    #[must_use]
    pub fn counterexample_spec(&self) -> Option<CampaignSpec> {
        let sweeps: Vec<SweepSpec> = self
            .cells
            .iter()
            .filter_map(CellOutcome::replay_fragment)
            .collect();
        (!sweeps.is_empty()).then(|| CampaignSpec {
            name: format!("{}_counterexamples", self.name),
            seed: self.seed,
            sweeps,
            search: None,
            limits: None,
            serve: None,
        })
    }

    /// The canonical JSON report: spec echo, per-cell frontiers (the resume
    /// state), severities and minimized counterexamples with replay
    /// fragments — no wall-clock fields, byte-identical at any worker count.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("seed", self.seed.to_json()),
            ("kind", Json::Str("search".to_string())),
            ("search", self.search.to_json()),
            (
                "cells",
                Json::Arr(self.cells.iter().map(cell_to_json).collect()),
            ),
            ("violations", self.violations().len().to_json()),
        ])
    }

    /// A human-readable per-cell summary table.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "search '{}' (seed {}): {} cells, {} with violations",
            self.name,
            self.seed,
            self.cells.len(),
            self.violations().len()
        );
        for cell in &self.cells {
            let best = cell.best();
            let verdict = best.severity.verdict();
            let status = if best.severity.is_violation() {
                let mut broken = Vec::new();
                if !verdict.agreement {
                    broken.push("agreement");
                }
                if !verdict.validity {
                    broken.push("validity");
                }
                if !verdict.termination {
                    broken.push("termination");
                }
                format!("VIOLATION ({})", broken.join("+"))
            } else {
                "correct".to_string()
            };
            let _ = writeln!(
                out,
                "  {} f={} {} [{}]: {} | dissent={} rounds={} evals={}{} | worst: {} faulty={} inputs={}",
                cell.graph,
                cell.f,
                cell.algorithm.name(),
                cell.regime.label(),
                status,
                best.severity.dissent,
                best.severity.rounds,
                cell.evals,
                if cell.exhausted { " (budget exhausted)" } else { "" },
                best.candidate.strategy.name(),
                best.candidate.faulty,
                best.candidate.inputs,
            );
            if let Some(counterexample) = &cell.counterexample {
                let shrunk = &counterexample.scored.candidate;
                let _ = writeln!(
                    out,
                    "    minimized: {} faulty={} inputs={} ({} shrink evals)",
                    shrunk.strategy.name(),
                    shrunk.faulty,
                    shrunk.inputs,
                    counterexample.shrink_evals
                );
            }
        }
        out
    }
}

fn cell_to_json(cell: &CellOutcome) -> Json {
    let best = cell.best();
    Json::object([
        ("family", Json::Str(cell.family.name().to_string())),
        ("graph", cell.graph.to_json()),
        ("n", cell.n.to_json()),
        ("f", cell.f.to_json()),
        ("algorithm", Json::Str(cell.algorithm.name().to_string())),
        ("regime", Json::Str(cell.regime.label())),
        ("regime_spec", cell.regime.to_json()),
        ("feasible", Json::Bool(cell.feasible)),
        ("evals", cell.evals.to_json()),
        ("rounds_done", cell.rounds_done.to_json()),
        ("exhausted", Json::Bool(cell.exhausted)),
        ("violation", Json::Bool(best.severity.is_violation())),
        ("best", best.to_json()),
        (
            "frontier",
            Json::Arr(cell.frontier.iter().map(Scored::to_json).collect()),
        ),
        (
            "counterexample",
            cell.counterexample.as_ref().map_or(Json::Null, |cx| {
                Json::object([
                    ("candidate", cx.scored.to_json()),
                    ("shrink_evals", cx.shrink_evals.to_json()),
                    (
                        "replay",
                        cell.replay_fragment()
                            .map_or(Json::Null, |fragment| fragment.to_json()),
                    ),
                ])
            }),
        ),
    ])
}

// ---------------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------------

/// Runs the per-cell worst-case search for `spec` on `workers` threads.
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec's sweeps are invalid or the search
/// knobs fail [`SearchSpec::validate`].
pub fn run_search(spec: &CampaignSpec, workers: usize) -> Result<SearchReport, SpecError> {
    run_search_resumed(spec, None, workers)
}

/// Renders the expanded cell table of a search spec **without executing
/// anything** — the `lbc search --list` debugging view: one row per cell
/// with its coordinates, regime, feasibility and seeded-frontier size.
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec's sweeps are invalid.
pub fn render_search_plan(spec: &CampaignSpec) -> Result<String, SpecError> {
    let search = spec.search.unwrap_or_default();
    search.validate()?;
    let cells = build_cells(spec)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "search '{}' (seed {}): {} cells, budget {} × beam {} × {} mutations × {} rounds",
        spec.name,
        spec.seed,
        cells.len(),
        search.budget,
        search.beam,
        search.mutations,
        search.rounds
    );
    for cell in &cells {
        let _ = writeln!(
            out,
            "  {} n={} f={} {} [{}] feasible={} seeds={}",
            cell.label,
            cell.n,
            cell.f,
            cell.algorithm.name(),
            cell.regime.label(),
            cell.feasible,
            cell.seeds.len()
        );
    }
    Ok(out)
}

/// Like [`run_search`], but restores per-cell frontiers from a prior
/// canonical search report: cells are matched by `(graph, f, algorithm)`
/// coordinates, matched cells skip their seed round and continue the
/// mutation schedule, and unmatched cells search from scratch.
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec is invalid, `prior` is not a
/// canonical search report, or `prior` was produced by a different campaign
/// (its `name`/`seed` must match the spec — a foreign frontier would make
/// the resumed report unreproducible from the spec alone).
pub fn run_search_resumed(
    spec: &CampaignSpec,
    prior: Option<&Json>,
    workers: usize,
) -> Result<SearchReport, SpecError> {
    let search = spec.search.unwrap_or_default();
    search.validate()?;
    let cells = build_cells(spec)?;
    let mut resumes: FxHashMap<CellKey, CellState> = match prior {
        Some(report) => {
            let prior_name = report.get("name").and_then(Json::as_str).unwrap_or("");
            let prior_seed = report
                .get("seed")
                .map(u64_from_number_or_string)
                .transpose()
                .ok()
                .flatten();
            crate::spec::validate_resume_fingerprint(
                prior_name,
                prior_seed,
                spec,
                "resume report",
            )?;
            restore_states(report).map_err(SpecError::new)?
        }
        None => FxHashMap::default(),
    };
    let plans: Vec<(CellPlan, Option<CellState>)> = cells
        .into_iter()
        .map(|plan| {
            let state = resumes.remove(&(
                plan.label.clone(),
                plan.f,
                plan.algorithm.name().to_string(),
                plan.regime.to_json().to_string(),
            ));
            (plan, state)
        })
        .collect();

    let outcomes = pool::run_ordered(workers, plans.len(), |_, index| {
        let (plan, state) = &plans[index];
        search_cell(plan, &search, state.clone())
    });

    Ok(SearchReport {
        name: spec.name.clone(),
        seed: spec.seed,
        search,
        cells: outcomes,
    })
}

/// Extracts the per-cell resume states from a canonical search report.
type CellKey = (String, usize, String, String);

fn restore_states(report: &Json) -> Result<FxHashMap<CellKey, CellState>, String> {
    let cells = report
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("resume document is not a canonical search report (missing 'cells')")?;
    let mut states = FxHashMap::default();
    for cell in cells {
        let graph = cell
            .get("graph")
            .and_then(Json::as_str)
            .ok_or("search cell missing 'graph'")?
            .to_string();
        let f = cell
            .get("f")
            .and_then(Json::as_u64)
            .ok_or("search cell missing 'f'")? as usize;
        let algorithm = cell
            .get("algorithm")
            .and_then(Json::as_str)
            .ok_or("search cell missing 'algorithm'")?
            .to_string();
        // The resume key carries the cell's full regime spec (canonical
        // JSON); pre-regime search reports have none — sync throughout.
        let regime = cell
            .get("regime_spec")
            .map_or_else(|| RegimeSpec::Sync.to_json(), Json::clone)
            .to_string();
        let evals = cell
            .get("evals")
            .and_then(Json::as_u64)
            .ok_or("search cell missing 'evals'")? as usize;
        let rounds_done = cell
            .get("rounds_done")
            .and_then(Json::as_u64)
            .ok_or("search cell missing 'rounds_done'")? as usize;
        let frontier = cell
            .get("frontier")
            .and_then(Json::as_array)
            .ok_or("search cell missing 'frontier'")?
            .iter()
            .map(Scored::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|err| err.to_string())?;
        states.insert(
            (graph, f, algorithm, regime),
            CellState {
                frontier,
                evals,
                rounds_done,
            },
        );
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultPolicy, GraphFamily, InputPolicy, SizeSpec, StrategySpec};
    use lbc_consensus::AlgorithmKind;

    fn c13_alg2_spec(budget: usize, rounds: usize) -> CampaignSpec {
        CampaignSpec {
            name: "search-unit".to_string(),
            seed: 41,
            sweeps: vec![SweepSpec {
                family: GraphFamily::Cycle,
                sizes: SizeSpec::List(vec![13]),
                f: FRange::exactly(1),
                algorithms: vec![AlgorithmKind::Algorithm2],
                regimes: RegimeSpec::default_axis(),
                strategies: vec![StrategySpec::TamperRelays],
                faults: FaultPolicy::WorstCase,
                inputs: InputPolicy::Alternating,
            }],
            search: Some(SearchSpec {
                budget,
                beam: 3,
                mutations: 4,
                rounds,
            }),
            limits: None,
            serve: None,
        }
    }

    #[test]
    fn search_rediscovers_the_c13_omission_gap_and_minimizes_it() {
        let report = run_search(&c13_alg2_spec(80, 2), 2).unwrap();
        assert_eq!(report.cells().len(), 1);
        let cell = &report.cells()[0];
        assert_eq!(cell.graph, "C13");
        let best = cell.best();
        assert!(
            best.severity.is_violation(),
            "search missed the omission gap: {:?}",
            best.severity
        );
        assert!(!best.severity.verdict().agreement);
        let counterexample = cell
            .counterexample
            .as_ref()
            .expect("violation is minimized");
        // The minimized strategy is the simplest that still violates —
        // omission (silent) on the exactly-2f-connected cycle.
        assert_eq!(counterexample.scored.candidate.strategy, Strategy::Silent);
        assert_eq!(counterexample.scored.candidate.faulty.len(), 1);
        // The replay fragment re-executes to the same violation.
        let replay = report.counterexample_spec().expect("replay spec exists");
        let replayed = crate::run_campaign(&replay, 1).unwrap();
        assert!(!replayed.all_correct(), "replay fragment must re-violate");
    }

    #[test]
    fn severity_orders_violation_over_margin_over_rounds() {
        let violating = Severity {
            violation: 4,
            dissent: 1,
            rounds: 10,
            volume: 10,
        };
        let near_miss = Severity {
            violation: 0,
            dissent: 2,
            rounds: 50,
            volume: 999,
        };
        let slow = Severity {
            violation: 0,
            dissent: 0,
            rounds: 60,
            volume: 1,
        };
        let busy = Severity {
            violation: 0,
            dissent: 0,
            rounds: 60,
            volume: 2,
        };
        assert!(violating > near_miss);
        assert!(near_miss > slow);
        assert!(busy > slow);
        assert!(!violating.verdict().agreement);
        assert!(violating.verdict().validity);
    }

    #[test]
    fn scored_candidates_roundtrip_through_json() {
        let scored = Scored {
            candidate: Candidate {
                strategy: Strategy::Random { seed: u64::MAX - 7 },
                faulty: NodeSet::singleton(NodeId::new(3)),
                inputs: InputAssignment::from_bits(5, 0b10110),
                schedule: Some(AsyncRegime {
                    scheduler: lbc_model::SchedulerKind::EdgeLag,
                    delay: 4,
                    seed: u64::MAX - 11,
                }),
                timing: None,
            },
            severity: Severity {
                violation: 5,
                dissent: 2,
                rounds: 31,
                volume: 812,
            },
            agreed: None,
        };
        let text = scored.to_json().to_string();
        let back = Scored::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, scored);
    }

    #[test]
    fn psync_candidates_carry_the_timing_axis_and_roundtrip() {
        let post = AsyncRegime {
            scheduler: lbc_model::SchedulerKind::Fifo,
            delay: 2,
            seed: u64::MAX - 3,
        };
        let scored = Scored {
            candidate: Candidate {
                strategy: Strategy::StraddleTamper,
                faulty: NodeSet::singleton(NodeId::new(1)),
                inputs: InputAssignment::from_bits(5, 0b01010),
                schedule: Some(post),
                timing: Some(schedule::GstAttack {
                    gst: 12,
                    hold: 0b100,
                }),
            },
            severity: Severity {
                violation: 4,
                dissent: 1,
                rounds: 24,
                volume: 90,
            },
            agreed: None,
        };
        // The candidate executes under the partial-sync regime assembled
        // from its (schedule, timing) pair…
        assert_eq!(
            scored.candidate.regime(),
            Regime::PartialSync {
                gst: 12,
                pre: lbc_model::AdversarialSchedule { hold: 0b100 },
                post,
            }
        );
        // …its key embeds that regime (so resume/dedup see the timing)…
        assert!(scored.candidate.key().contains("partial-sync"));
        // …and the JSON round-trip preserves both halves exactly.
        let text = scored.to_json().to_string();
        let back = Scored::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, scored);
    }

    #[test]
    fn cells_merge_across_sweeps_and_seed_deterministically() {
        let mut spec = c13_alg2_spec(40, 0);
        // A second sweep over the same cell must merge, not duplicate.
        spec.sweeps.push(spec.sweeps[0].clone());
        let cells = build_cells(&spec).unwrap();
        assert_eq!(cells.len(), 1);
        let again = build_cells(&spec).unwrap();
        assert_eq!(cells[0].seeds.len(), again[0].seeds.len());
        for (a, b) in cells[0].seeds.iter().zip(&again[0].seeds) {
            assert_eq!(a.key(), b.key());
        }
    }

    #[test]
    fn search_spec_validation_rejects_degenerate_knobs() {
        assert!(SearchSpec {
            budget: 0,
            ..SearchSpec::default()
        }
        .validate()
        .is_err());
        assert!(SearchSpec {
            beam: 0,
            ..SearchSpec::default()
        }
        .validate()
        .is_err());
        assert!(SearchSpec {
            budget: MAX_SEARCH_BUDGET + 1,
            ..SearchSpec::default()
        }
        .validate()
        .is_err());
        assert!(SearchSpec::default().validate().is_ok());
    }
}
