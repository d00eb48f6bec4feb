//! Declarative campaign specifications and their deterministic expansion.
//!
//! A [`CampaignSpec`] is a JSON document describing *grids* of executions:
//! each [`SweepSpec`] names a graph family with a size range, an `f` range,
//! a set of algorithms, a set of adversary strategies, a fault-placement
//! policy and an input-assignment policy. [`CampaignSpec::expand`] unrolls
//! the grids — on one thread, with all randomness drawn from seeds derived
//! from the campaign seed — into a flat list of self-contained
//! [`Scenario`]s, which is what the executor parallelizes over.
//!
//! The JSON schema is documented field-by-field on each type and
//! illustrated by the committed specs under `examples/campaigns/`.

use lbc_adversary::Strategy;
use lbc_consensus::{conditions, AlgorithmKind};
use lbc_graph::{combinatorics, generators, Graph};
use lbc_model::fx::FxHashSet;
use lbc_model::json::{u64_from_number_or_string, FromJson, Json, JsonError, ToJson};
use lbc_model::{
    AdversarialSchedule, AsyncRegime, InputAssignment, NodeId, NodeSet, Regime, SchedulerKind,
};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::fmt;

/// Hard cap on the number of scenarios one spec may expand into, as a guard
/// against accidentally exponential grids (`exhaustive` × `exhaustive`).
pub const MAX_SCENARIOS: usize = 250_000;

/// Cap on the number of fault placements the `exhaustive` policy enumerates
/// for a single `(graph, f)` cell.
pub const MAX_EXHAUSTIVE_PLACEMENTS: u128 = 20_000;

/// Cap on the `count` of the `random` fault/input policies for a single
/// cell — rejection sampling of distinct draws degrades as the count
/// approaches the population, so grids past this size must be expressed
/// with explicit/exhaustive policies (and would blow [`MAX_SCENARIOS`]
/// anyway).
pub const MAX_RANDOM_DRAWS: u64 = 8_192;

/// Error produced when parsing or expanding a campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description of what is wrong with the spec.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(err: JsonError) -> Self {
        SpecError::new(err.to_string())
    }
}

// ---------------------------------------------------------------------------
// seed derivation
// ---------------------------------------------------------------------------

/// Mixes a sequence of words into one 64-bit seed (SplitMix64 finalizer per
/// word; the fold is order-sensitive). This is the documented derivation
/// for every seed the campaign subsystem draws — salt word first:
///
/// * fault placements: `mix_seed([SALT_FAULTS, campaign_seed, sweep, n, f])`
/// * input assignments: `mix_seed([SALT_INPUTS, campaign_seed, sweep, n, f])`
/// * per-scenario adversary seed:
///   `mix_seed([SALT_SCENARIO, campaign_seed, index])`
///
/// with `SALT_FAULTS = 0xFA`, `SALT_INPUTS = 0x1A`, `SALT_SCENARIO = 0x5C`.
#[must_use]
pub fn mix_seed(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &part in parts {
        let mut z = h ^ part.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

const SALT_FAULTS: u64 = 0xFA;
const SALT_INPUTS: u64 = 0x1A;
const SALT_SCENARIO: u64 = 0x5C;
const SALT_REGIME: u64 = 0xD1;
pub(crate) const SALT_SERVE: u64 = 0x5E;

// ---------------------------------------------------------------------------
// graph families
// ---------------------------------------------------------------------------

/// A parameterized graph family, instantiated at each size of a sweep.
///
/// JSON: `{"kind": "cycle"}`, `{"kind": "circulant", "offsets": [1, 2]}`,
/// `{"kind": "harary", "k": 4}`, `{"kind": "complete" | "wheel" | "path" |
/// "hypercube" | "fig1a" | "fig1b"}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphFamily {
    /// The cycle `C_n` (`n ≥ 3`).
    Cycle,
    /// The complete graph `K_n`.
    Complete,
    /// The wheel `W_n`: hub + `(n−1)`-cycle rim (`n ≥ 4`).
    Wheel,
    /// The path graph `P_n` (always infeasible for `f ≥ 1`; boundary sweeps).
    PathGraph,
    /// The circulant `C_n(offsets)` (`n ≥ 2·max(offsets)+1`).
    Circulant {
        /// The circulant connection offsets (e.g. `[1, 2]`).
        offsets: Vec<usize>,
    },
    /// The Harary graph `H_{k,n}`: `k`-connected on `n` nodes (`n > k ≥ 2`).
    Harary {
        /// The connectivity parameter `k`.
        k: usize,
    },
    /// The hypercube `Q_d`; the sweep size `n` must be `2^d`.
    Hypercube,
    /// The paper's Figure 1(a) 5-cycle (fixed `n = 5`).
    Fig1a,
    /// The paper's Figure 1(b) circulant `C_9(1,2)` (fixed `n = 9`).
    Fig1b,
}

impl GraphFamily {
    /// The family name used in reports and rollups.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            GraphFamily::Cycle => "cycle",
            GraphFamily::Complete => "complete",
            GraphFamily::Wheel => "wheel",
            GraphFamily::PathGraph => "path",
            GraphFamily::Circulant { .. } => "circulant",
            GraphFamily::Harary { .. } => "harary",
            GraphFamily::Hypercube => "hypercube",
            GraphFamily::Fig1a => "fig1a",
            GraphFamily::Fig1b => "fig1b",
        }
    }

    /// The label of the size-`n` instance (e.g. `C9(1,2)`, `H4,13`).
    #[must_use]
    pub fn label(&self, n: usize) -> String {
        match self {
            GraphFamily::Cycle => format!("C{n}"),
            GraphFamily::Complete => format!("K{n}"),
            GraphFamily::Wheel => format!("W{n}"),
            GraphFamily::PathGraph => format!("P{n}"),
            GraphFamily::Circulant { offsets } => {
                let offs: Vec<String> = offsets.iter().map(ToString::to_string).collect();
                format!("C{n}({})", offs.join(","))
            }
            GraphFamily::Harary { k } => format!("H{k},{n}"),
            GraphFamily::Hypercube => format!("Q{}", n.trailing_zeros()),
            GraphFamily::Fig1a => "fig1a".to_string(),
            GraphFamily::Fig1b => "fig1b".to_string(),
        }
    }

    /// Validates that the family can be instantiated at size `n`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the violated constraint.
    pub fn check(&self, n: usize) -> Result<(), SpecError> {
        let reject = |constraint: &str| {
            Err(SpecError::new(format!(
                "{} cannot be built at n = {n}: requires {constraint}",
                self.name()
            )))
        };
        match self {
            GraphFamily::Cycle if n < 3 => reject("n >= 3"),
            GraphFamily::Complete if n < 1 => reject("n >= 1"),
            GraphFamily::Wheel if n < 4 => reject("n >= 4"),
            GraphFamily::PathGraph if n < 2 => reject("n >= 2"),
            GraphFamily::Circulant { offsets } => {
                if offsets.is_empty() {
                    return Err(SpecError::new("circulant requires non-empty offsets"));
                }
                let max = offsets.iter().copied().max().unwrap_or(0);
                if offsets.contains(&0) || n < 2 * max + 1 {
                    reject("positive offsets and n >= 2*max(offsets)+1")
                } else {
                    Ok(())
                }
            }
            GraphFamily::Harary { k } => {
                if *k < 2 || n <= *k {
                    reject("n > k >= 2")
                } else {
                    Ok(())
                }
            }
            GraphFamily::Hypercube if !n.is_power_of_two() || n < 2 => {
                reject("n = 2^d with d >= 1")
            }
            GraphFamily::Fig1a if n != 5 => reject("n = 5 (fixed-size family)"),
            GraphFamily::Fig1b if n != 9 => reject("n = 9 (fixed-size family)"),
            _ => Ok(()),
        }
    }

    /// Builds the size-`n` instance. Call [`GraphFamily::check`] first.
    #[must_use]
    pub fn build(&self, n: usize) -> Graph {
        match self {
            GraphFamily::Cycle => generators::cycle(n),
            GraphFamily::Complete => generators::complete(n),
            GraphFamily::Wheel => generators::wheel(n),
            GraphFamily::PathGraph => generators::path_graph(n),
            GraphFamily::Circulant { offsets } => generators::circulant(n, offsets),
            GraphFamily::Harary { k } => generators::harary(*k, n),
            GraphFamily::Hypercube => generators::hypercube(n.trailing_zeros()),
            GraphFamily::Fig1a => generators::paper_fig1a(),
            GraphFamily::Fig1b => generators::paper_fig1b(),
        }
    }
}

impl ToJson for GraphFamily {
    fn to_json(&self) -> Json {
        let mut fields = vec![("kind", Json::Str(self.name().to_string()))];
        match self {
            GraphFamily::Circulant { offsets } => fields.push(("offsets", offsets.to_json())),
            GraphFamily::Harary { k } => fields.push(("k", k.to_json())),
            _ => {}
        }
        Json::object(fields)
    }
}

impl FromJson for GraphFamily {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError {
                message: "graph family requires a 'kind' string".to_string(),
            })?;
        Ok(match kind {
            "cycle" => GraphFamily::Cycle,
            "complete" => GraphFamily::Complete,
            "wheel" => GraphFamily::Wheel,
            "path" => GraphFamily::PathGraph,
            "circulant" => GraphFamily::Circulant {
                offsets: match value.get("offsets") {
                    Some(offsets) => Vec::<usize>::from_json(offsets)?,
                    None => vec![1, 2],
                },
            },
            "harary" => GraphFamily::Harary {
                k: usize::from_json(value.get("k").ok_or_else(|| JsonError {
                    message: "harary family requires 'k'".to_string(),
                })?)?,
            },
            "hypercube" => GraphFamily::Hypercube,
            "fig1a" => GraphFamily::Fig1a,
            "fig1b" => GraphFamily::Fig1b,
            other => {
                return Err(JsonError {
                    message: format!("unknown graph family kind '{other}'"),
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// size and f ranges
// ---------------------------------------------------------------------------

/// The sizes a sweep instantiates its family at.
///
/// JSON: `{"list": [5, 7, 9]}` or `{"from": 5, "to": 9, "step": 2}`
/// (`step` defaults to 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizeSpec {
    /// An explicit list of sizes, in the given order.
    List(Vec<usize>),
    /// An inclusive arithmetic range.
    Range {
        /// First size.
        from: usize,
        /// Last size (inclusive).
        to: usize,
        /// Increment (must be ≥ 1).
        step: usize,
    },
}

impl SizeSpec {
    /// The concrete sizes, in expansion order.
    #[must_use]
    pub fn values(&self) -> Vec<usize> {
        match self {
            SizeSpec::List(sizes) => sizes.clone(),
            SizeSpec::Range { from, to, step } => (*from..=*to).step_by((*step).max(1)).collect(),
        }
    }
}

impl ToJson for SizeSpec {
    fn to_json(&self) -> Json {
        match self {
            SizeSpec::List(sizes) => Json::object([("list", sizes.to_json())]),
            SizeSpec::Range { from, to, step } => Json::object([
                ("from", from.to_json()),
                ("to", to.to_json()),
                ("step", step.to_json()),
            ]),
        }
    }
}

impl FromJson for SizeSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Some(list) = value.get("list") {
            return Ok(SizeSpec::List(Vec::<usize>::from_json(list)?));
        }
        match (value.get("from"), value.get("to")) {
            (Some(from), Some(to)) => Ok(SizeSpec::Range {
                from: usize::from_json(from)?,
                to: usize::from_json(to)?,
                step: value.get("step").map_or(Ok(1), usize::from_json)?,
            }),
            _ => Err(JsonError {
                message: "sizes require either 'list' or 'from'/'to'".to_string(),
            }),
        }
    }
}

/// The inclusive range of fault bounds `f` a sweep covers.
///
/// JSON: a bare number (`"f": 1`) or `{"from": 1, "to": 2}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FRange {
    /// Smallest `f`.
    pub from: usize,
    /// Largest `f` (inclusive).
    pub to: usize,
}

impl FRange {
    /// The single-point range `f..=f`.
    #[must_use]
    pub fn exactly(f: usize) -> Self {
        FRange { from: f, to: f }
    }
}

impl ToJson for FRange {
    fn to_json(&self) -> Json {
        if self.from == self.to {
            self.from.to_json()
        } else {
            Json::object([("from", self.from.to_json()), ("to", self.to.to_json())])
        }
    }
}

impl FromJson for FRange {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Some(f) = value.as_u64() {
            return Ok(FRange::exactly(f as usize));
        }
        match (value.get("from"), value.get("to")) {
            (Some(from), Some(to)) => Ok(FRange {
                from: usize::from_json(from)?,
                to: usize::from_json(to)?,
            }),
            _ => Err(JsonError {
                message: "'f' must be a number or {from, to}".to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------------

/// A declarative adversary strategy, materialized per scenario.
///
/// JSON: a bare name (`"tamper-relays"`, `"random"`, …) or a parameterized
/// object (`{"kind": "random", "seed": 7}`, `{"kind": "crash-after",
/// "round": 2}`, `{"kind": "sleeper", "honest-rounds": 3}`).
///
/// `"random"` without an explicit seed is the interesting case: each
/// scenario materializes it with the scenario's own derived seed, so a grid
/// of 500 scenarios exercises 500 *different* (but each reproducible) coin
/// sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategySpec {
    /// [`Strategy::Honest`].
    Honest,
    /// [`Strategy::Silent`].
    Silent,
    /// [`Strategy::CrashAfter`] with the given round.
    CrashAfter(u64),
    /// [`Strategy::CrashRecover`] — silent for a window, then honest again.
    CrashRecover {
        /// First round of the silent window.
        down_from: u64,
        /// Length of the silent window in rounds.
        down_for: u64,
    },
    /// [`Strategy::TamperAll`].
    TamperAll,
    /// [`Strategy::TamperRelays`].
    TamperRelays,
    /// [`Strategy::Equivocate`].
    Equivocate,
    /// [`Strategy::Random`]; `None` derives the seed per scenario.
    Random {
        /// Explicit seed, or `None` for the per-scenario derived seed.
        seed: Option<u64>,
    },
    /// [`Strategy::SleeperTamper`] with the given honest prefix.
    Sleeper {
        /// Number of initial honest rounds.
        honest_rounds: u64,
    },
    /// [`Strategy::StraddleTamper`] — scheduler-aware, honest strictly
    /// before the regime's stabilization time.
    StraddleTamper,
    /// [`Strategy::GstEquivocate`] — scheduler-aware equivocation from the
    /// stabilization time onwards.
    GstEquivocate,
}

impl StrategySpec {
    /// The stable strategy name (matches [`Strategy::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Honest => "honest",
            StrategySpec::Silent => "silent",
            StrategySpec::CrashAfter(_) => "crash-after",
            StrategySpec::CrashRecover { .. } => "crash-recover",
            StrategySpec::TamperAll => "tamper-all",
            StrategySpec::TamperRelays => "tamper-relays",
            StrategySpec::Equivocate => "equivocate",
            StrategySpec::Random { .. } => "random",
            StrategySpec::Sleeper { .. } => "sleeper-tamper",
            StrategySpec::StraddleTamper => "straddle-tamper",
            StrategySpec::GstEquivocate => "gst-equivocate",
        }
    }

    /// Materializes the executable [`Strategy`] for a scenario with the
    /// given derived seed.
    #[must_use]
    pub fn materialize(&self, scenario_seed: u64) -> Strategy {
        match self {
            StrategySpec::Honest => Strategy::Honest,
            StrategySpec::Silent => Strategy::Silent,
            StrategySpec::CrashAfter(round) => Strategy::CrashAfter(*round),
            StrategySpec::CrashRecover {
                down_from,
                down_for,
            } => Strategy::CrashRecover {
                down_from: *down_from,
                down_for: *down_for,
            },
            StrategySpec::TamperAll => Strategy::TamperAll,
            StrategySpec::TamperRelays => Strategy::TamperRelays,
            StrategySpec::Equivocate => Strategy::Equivocate,
            StrategySpec::Random { seed } => Strategy::Random {
                seed: seed.unwrap_or(scenario_seed),
            },
            StrategySpec::Sleeper { honest_rounds } => Strategy::SleeperTamper {
                honest_rounds: *honest_rounds,
            },
            StrategySpec::StraddleTamper => Strategy::StraddleTamper,
            StrategySpec::GstEquivocate => Strategy::GstEquivocate,
        }
    }
}

impl ToJson for StrategySpec {
    fn to_json(&self) -> Json {
        match self {
            StrategySpec::CrashAfter(round) => Json::object([
                ("kind", Json::Str("crash-after".to_string())),
                ("round", round.to_json()),
            ]),
            StrategySpec::CrashRecover {
                down_from,
                down_for,
            } => Json::object([
                ("kind", Json::Str("crash-recover".to_string())),
                ("down-from", down_from.to_json()),
                ("down-for", down_for.to_json()),
            ]),
            // Explicit seeds serialize as strings: derived seeds use all 64
            // bits, which a JSON f64 number would silently round (and a
            // replayed counterexample would then diverge).
            StrategySpec::Random { seed: Some(seed) } => Json::object([
                ("kind", Json::Str("random".to_string())),
                ("seed", Json::Str(seed.to_string())),
            ]),
            StrategySpec::Sleeper { honest_rounds } => Json::object([
                ("kind", Json::Str("sleeper".to_string())),
                ("honest-rounds", honest_rounds.to_json()),
            ]),
            plain => Json::Str(plain.name().to_string()),
        }
    }
}

impl FromJson for StrategySpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = value
            .as_str()
            .or_else(|| value.get("kind").and_then(Json::as_str))
            .ok_or_else(|| JsonError {
                message: "strategy must be a name or an object with 'kind'".to_string(),
            })?;
        Ok(match kind {
            "honest" => StrategySpec::Honest,
            "silent" => StrategySpec::Silent,
            "tamper-all" => StrategySpec::TamperAll,
            "tamper-relays" => StrategySpec::TamperRelays,
            "equivocate" => StrategySpec::Equivocate,
            "crash-after" => {
                StrategySpec::CrashAfter(value.get("round").map_or(Ok(2), u64::from_json)?)
            }
            "crash-recover" => StrategySpec::CrashRecover {
                down_from: value.get("down-from").map_or(Ok(2), u64::from_json)?,
                down_for: value.get("down-for").map_or(Ok(2), u64::from_json)?,
            },
            "random" => StrategySpec::Random {
                seed: value
                    .get("seed")
                    .map(u64_from_number_or_string)
                    .transpose()?,
            },
            "sleeper" | "sleeper-tamper" => StrategySpec::Sleeper {
                honest_rounds: value.get("honest-rounds").map_or(Ok(3), u64::from_json)?,
            },
            "straddle-tamper" => StrategySpec::StraddleTamper,
            "gst-equivocate" => StrategySpec::GstEquivocate,
            other => {
                return Err(JsonError {
                    message: format!("unknown strategy '{other}'"),
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// regimes
// ---------------------------------------------------------------------------

/// A declarative execution regime, materialized per scenario.
///
/// JSON: the bare name `"sync"`, an async object
/// (`{"kind": "async", "scheduler": "edge-lag", "delay": 3}`), or a
/// partial-synchrony object (`{"kind": "partial-sync", "gst": 12,
/// "hold": [2], "scheduler": "fifo", "delay": 2}`); async and partial-sync
/// objects optionally carry an explicit `"seed"`.
///
/// Like [`StrategySpec::Random`], an async regime without an explicit seed
/// is materialized with each scenario's own derived seed, so a grid of
/// scenarios exercises many *different* (but each reproducible) schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegimeSpec {
    /// The synchronous lockstep regime (the default axis value).
    Sync,
    /// An asynchronous regime under a deterministic scheduler.
    Async {
        /// The deterministic schedule family.
        scheduler: SchedulerKind,
        /// The eventual-fairness bound `D ≥ 1`.
        delay: u32,
        /// Explicit seed, or `None` for the per-scenario derived seed.
        seed: Option<u64>,
    },
    /// A partially synchronous regime: an adversary-held prefix up to `gst`,
    /// then the post-GST asynchronous schedule.
    PartialSync {
        /// The Global Stabilization Time, `1..=`[`lbc_model::MAX_GST`].
        gst: u32,
        /// The pre-GST hold-set (senders whose transmissions burst at GST).
        hold: AdversarialSchedule,
        /// The post-GST deterministic schedule family.
        scheduler: SchedulerKind,
        /// The post-GST eventual-fairness bound `D ≥ 1`.
        delay: u32,
        /// Explicit seed, or `None` for the per-scenario derived seed.
        seed: Option<u64>,
    },
}

impl RegimeSpec {
    /// The default regime axis: synchronous only (what every spec without a
    /// `"regimes"` key gets, keeping pre-regime specs' expansion identical).
    #[must_use]
    pub fn default_axis() -> Vec<RegimeSpec> {
        vec![RegimeSpec::Sync]
    }

    /// Whether this is the synchronous regime.
    #[must_use]
    pub fn is_sync(&self) -> bool {
        matches!(self, RegimeSpec::Sync)
    }

    /// Materializes the concrete [`Regime`] for a scenario with the given
    /// derived seed.
    #[must_use]
    pub fn materialize(&self, scenario_seed: u64) -> Regime {
        match self {
            RegimeSpec::Sync => Regime::Synchronous,
            RegimeSpec::Async {
                scheduler,
                delay,
                seed,
            } => Regime::Asynchronous(AsyncRegime {
                scheduler: *scheduler,
                // No `max(1)` safety net: a zero delay is rejected at parse
                // time, and materializing a hand-built zero-delay spec
                // should fail loudly (the model asserts) rather than run a
                // silently different regime.
                delay: *delay,
                seed: seed.unwrap_or_else(|| mix_seed(&[SALT_REGIME, scenario_seed])),
            }),
            RegimeSpec::PartialSync {
                gst,
                hold,
                scheduler,
                delay,
                seed,
            } => Regime::PartialSync {
                gst: *gst,
                pre: *hold,
                post: AsyncRegime {
                    scheduler: *scheduler,
                    delay: *delay,
                    seed: seed.unwrap_or_else(|| mix_seed(&[SALT_REGIME, scenario_seed])),
                },
            },
        }
    }

    /// The seedless grouping label (matches [`Regime::label`], through
    /// which it is derived — the seed never appears in labels).
    #[must_use]
    pub fn label(&self) -> String {
        self.materialize(0).label()
    }
}

impl ToJson for RegimeSpec {
    fn to_json(&self) -> Json {
        match self {
            RegimeSpec::Sync => Json::Str("sync".to_string()),
            RegimeSpec::Async {
                scheduler,
                delay,
                seed,
            } => {
                let mut fields = vec![
                    ("kind", Json::Str("async".to_string())),
                    ("scheduler", Json::Str(scheduler.name().to_string())),
                    ("delay", u64::from(*delay).to_json()),
                ];
                if let Some(seed) = seed {
                    // Strings for the same reason strategy seeds are
                    // strings: all 64 bits must survive the JSON round-trip.
                    fields.push(("seed", Json::Str(seed.to_string())));
                }
                Json::object(fields)
            }
            RegimeSpec::PartialSync {
                gst,
                hold,
                scheduler,
                delay,
                seed,
            } => {
                let mut fields = vec![
                    ("kind", Json::Str("partial-sync".to_string())),
                    ("gst", u64::from(*gst).to_json()),
                    (
                        "hold",
                        Json::Arr(
                            hold.held_nodes()
                                .into_iter()
                                .map(|node| (node as u64).to_json())
                                .collect(),
                        ),
                    ),
                    ("scheduler", Json::Str(scheduler.name().to_string())),
                    ("delay", u64::from(*delay).to_json()),
                ];
                if let Some(seed) = seed {
                    fields.push(("seed", Json::Str(seed.to_string())));
                }
                Json::object(fields)
            }
        }
    }
}

impl FromJson for RegimeSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = value
            .as_str()
            .or_else(|| value.get("kind").and_then(Json::as_str))
            .ok_or_else(|| JsonError {
                message: "regime must be a name or an object with 'kind'".to_string(),
            })?;
        match kind {
            "sync" | "synchronous" => Ok(RegimeSpec::Sync),
            // The object fields parse through the same helpers Regime's own
            // parser uses (scheduler default, delay default + MAX_DELAY
            // cap), so the spec schema cannot drift from the model schema;
            // the only spec-level difference is that the seed stays
            // optional (derived per scenario when absent).
            "async" | "asynchronous" => Ok(RegimeSpec::Async {
                scheduler: lbc_model::regime::scheduler_from_json(value)?,
                delay: lbc_model::regime::delay_from_json(value)?,
                seed: value
                    .get("seed")
                    .map(u64_from_number_or_string)
                    .transpose()?,
            }),
            "partial-sync" | "psync" => Ok(RegimeSpec::PartialSync {
                gst: lbc_model::regime::gst_from_json(value)?,
                hold: lbc_model::regime::hold_from_json(value)?,
                scheduler: lbc_model::regime::scheduler_from_json(value)?,
                delay: lbc_model::regime::delay_from_json(value)?,
                seed: value
                    .get("seed")
                    .map(u64_from_number_or_string)
                    .transpose()?,
            }),
            other => Err(JsonError {
                message: format!("unknown regime '{other}' (use sync, async or partial-sync)"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// fault placement policies
// ---------------------------------------------------------------------------

/// How the faulty sets of a sweep cell `(graph, f)` are chosen.
///
/// JSON: `{"policy": "exhaustive"}`, `{"policy": "random", "count": 3}`,
/// `{"policy": "worst-case"}`,
/// `{"policy": "fixed", "sets": [[1], [0, 2]]}`, or
/// `{"policy": "explicit", "sets": [[1]]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Every `C(n, f)` placement of exactly `f` faults
    /// (capped at [`MAX_EXHAUSTIVE_PLACEMENTS`]).
    Exhaustive,
    /// `count` distinct placements sampled with the derived cell seed.
    /// Asking for at least `C(n, f)` placements enumerates them all
    /// instead (subject to [`MAX_EXHAUSTIVE_PLACEMENTS`]); `count` must be
    /// at least 1.
    Random {
        /// How many distinct placements to draw.
        count: usize,
    },
    /// One placement from a worst-case heuristic: faults packed around a
    /// minimum-degree victim (the victim's lowest-degree neighbors first,
    /// then the remaining lowest-degree nodes).
    WorstCase,
    /// Explicit placements by node index; sets whose size differs from the
    /// cell's `f` are skipped, so one list serves a whole `f` range.
    Fixed(Vec<Vec<usize>>),
    /// Explicit placements used verbatim as long as each set has at most
    /// `f` nodes (an adversary may use fewer faults than the declared
    /// bound). This is the policy minimized search counterexamples replay
    /// under: the cell's `f` stays what the algorithm was configured with
    /// while the shrunken fault set keeps its (smaller) size.
    Explicit(Vec<Vec<usize>>),
}

impl FaultPolicy {
    /// The concrete fault placements for one `(graph, f)` cell, in
    /// deterministic order. Discards the policy-degradation note; campaign
    /// expansion uses [`FaultPolicy::placements_noted`] so the note reaches
    /// the report metadata.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when exhaustive enumeration would exceed
    /// [`MAX_EXHAUSTIVE_PLACEMENTS`] or when a fixed set is out of range.
    pub fn placements(
        &self,
        graph: &Graph,
        f: usize,
        cell_seed: u64,
    ) -> Result<Vec<NodeSet>, SpecError> {
        Ok(self.placements_noted(graph, f, cell_seed)?.0)
    }

    /// Like [`FaultPolicy::placements`], but also returns a note when the
    /// policy silently degraded — today the one case is `random` with
    /// `count >= C(n, f)`, which enumerates every placement exhaustively
    /// instead of sampling. The note travels into the campaign report's
    /// metadata so a reader can tell sampled cells from enumerated ones.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FaultPolicy::placements`].
    pub fn placements_noted(
        &self,
        graph: &Graph,
        f: usize,
        cell_seed: u64,
    ) -> Result<(Vec<NodeSet>, Option<String>), SpecError> {
        let n = graph.node_count();
        if f > n {
            return Err(SpecError::new(format!("f = {f} exceeds n = {n}")));
        }
        let nodes: Vec<NodeId> = graph.nodes().collect();
        match self {
            FaultPolicy::Exhaustive => {
                let total = combinatorics::binomial(n, f);
                if total > MAX_EXHAUSTIVE_PLACEMENTS {
                    return Err(SpecError::new(format!(
                        "exhaustive fault placement would enumerate {total} sets \
                         (> {MAX_EXHAUSTIVE_PLACEMENTS}); use the random policy"
                    )));
                }
                Ok((
                    combinatorics::subsets_of_size(&nodes, f)
                        .into_iter()
                        .map(|subset| subset.into_iter().collect())
                        .collect(),
                    None,
                ))
            }
            FaultPolicy::Random { count } => {
                if *count == 0 {
                    return Err(SpecError::new("random fault policy requires count >= 1"));
                }
                if u64::try_from(*count).is_ok_and(|c| c > MAX_RANDOM_DRAWS) {
                    return Err(SpecError::new(format!(
                        "random fault policy count {count} exceeds the per-cell cap \
                         of {MAX_RANDOM_DRAWS}"
                    )));
                }
                let total = combinatorics::binomial(n, f);
                if u128::try_from(*count).is_ok_and(|c| c >= total) {
                    if total <= MAX_EXHAUSTIVE_PLACEMENTS {
                        // Asking for at least all of them: enumerate instead,
                        // and say so — a report claiming `count` sampled
                        // placements when the cell was actually enumerated
                        // would misrepresent the coverage.
                        let (all, _) =
                            FaultPolicy::Exhaustive.placements_noted(graph, f, cell_seed)?;
                        let note = format!(
                            "random fault policy count {count} >= C({n}, {f}) = {total}: \
                             enumerated all placements exhaustively instead of sampling"
                        );
                        return Ok((all, Some(note)));
                    }
                    return Err(SpecError::new(format!(
                        "random fault policy asks for {count} of {total} placements; \
                         sampling that many distinct sets is not supported \
                         (> {MAX_EXHAUSTIVE_PLACEMENTS}) — lower the count"
                    )));
                }
                // count < total from here on, so sampling terminates; the
                // hash set makes each distinctness test O(1) while `chosen`
                // keeps the deterministic draw order.
                let mut rng = ChaCha8Rng::seed_from_u64(cell_seed);
                let mut chosen: Vec<NodeSet> = Vec::new();
                let mut seen: FxHashSet<NodeSet> = FxHashSet::default();
                while chosen.len() < *count {
                    let mut set = NodeSet::new();
                    while set.len() < f {
                        set.insert(nodes[rng.gen_range(0..n)]);
                    }
                    if seen.insert(set.clone()) {
                        chosen.push(set);
                    }
                }
                Ok((chosen, None))
            }
            FaultPolicy::WorstCase => {
                let degree = |v: NodeId| graph.neighbors(v).count();
                let victim = nodes
                    .iter()
                    .copied()
                    .min_by_key(|&v| (degree(v), v.index()))
                    .ok_or_else(|| SpecError::new("worst-case policy on an empty graph"))?;
                let mut ranked: Vec<NodeId> = graph.neighbors(victim).collect();
                ranked.sort_by_key(|&v| (degree(v), v.index()));
                let mut rest: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&v| v != victim && !graph.has_edge(victim, v))
                    .collect();
                rest.sort_by_key(|&v| (degree(v), v.index()));
                ranked.extend(rest);
                if ranked.len() < f {
                    return Err(SpecError::new(format!(
                        "worst-case policy cannot place {f} faults on {n} nodes"
                    )));
                }
                Ok((vec![ranked.into_iter().take(f).collect()], None))
            }
            FaultPolicy::Fixed(sets) => {
                let mut placements = Vec::new();
                for set in sets {
                    if set.len() != f {
                        continue;
                    }
                    if set.iter().any(|&v| v >= n) {
                        return Err(SpecError::new(format!(
                            "fixed fault set {set:?} is out of range for n = {n}"
                        )));
                    }
                    placements.push(set.iter().copied().map(NodeId::new).collect());
                }
                if placements.is_empty() {
                    return Err(SpecError::new(format!(
                        "fixed fault policy has no set of size f = {f}"
                    )));
                }
                Ok((placements, None))
            }
            FaultPolicy::Explicit(sets) => {
                let mut placements = Vec::new();
                for set in sets {
                    if set.len() > f {
                        return Err(SpecError::new(format!(
                            "explicit fault set {set:?} has more than f = {f} nodes"
                        )));
                    }
                    if set.iter().any(|&v| v >= n) {
                        return Err(SpecError::new(format!(
                            "explicit fault set {set:?} is out of range for n = {n}"
                        )));
                    }
                    placements.push(set.iter().copied().map(NodeId::new).collect());
                }
                if placements.is_empty() {
                    return Err(SpecError::new("explicit fault policy has no sets"));
                }
                Ok((placements, None))
            }
        }
    }
}

impl ToJson for FaultPolicy {
    fn to_json(&self) -> Json {
        match self {
            FaultPolicy::Exhaustive => {
                Json::object([("policy", Json::Str("exhaustive".to_string()))])
            }
            FaultPolicy::Random { count } => Json::object([
                ("policy", Json::Str("random".to_string())),
                ("count", count.to_json()),
            ]),
            FaultPolicy::WorstCase => {
                Json::object([("policy", Json::Str("worst-case".to_string()))])
            }
            FaultPolicy::Fixed(sets) => Json::object([
                ("policy", Json::Str("fixed".to_string())),
                (
                    "sets",
                    Json::Arr(sets.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            FaultPolicy::Explicit(sets) => Json::object([
                ("policy", Json::Str("explicit".to_string())),
                (
                    "sets",
                    Json::Arr(sets.iter().map(ToJson::to_json).collect()),
                ),
            ]),
        }
    }
}

impl FromJson for FaultPolicy {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let policy = value
            .get("policy")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError {
                message: "fault policy requires a 'policy' string".to_string(),
            })?;
        Ok(match policy {
            "exhaustive" => FaultPolicy::Exhaustive,
            "random" => FaultPolicy::Random {
                count: usize::from_json(value.get("count").ok_or_else(|| JsonError {
                    message: "random fault policy requires 'count'".to_string(),
                })?)?,
            },
            "worst-case" => FaultPolicy::WorstCase,
            "fixed" | "explicit" => {
                let sets = value
                    .get("sets")
                    .and_then(Json::as_array)
                    .ok_or_else(|| JsonError {
                        message: format!("{policy} fault policy requires 'sets'"),
                    })?
                    .iter()
                    .map(Vec::<usize>::from_json)
                    .collect::<Result<_, _>>()?;
                if policy == "fixed" {
                    FaultPolicy::Fixed(sets)
                } else {
                    FaultPolicy::Explicit(sets)
                }
            }
            other => {
                return Err(JsonError {
                    message: format!("unknown fault policy '{other}'"),
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// input assignment policies
// ---------------------------------------------------------------------------

/// How the binary input assignments of a sweep cell are chosen.
///
/// JSON: `{"policy": "alternating" | "all-zero" | "all-one" | "split-half" |
/// "exhaustive"}`, `{"policy": "bits", "bits": 13}`, or
/// `{"policy": "random", "count": 2}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputPolicy {
    /// `0101…` by node index.
    Alternating,
    /// Every node holds `0` (tests validity under unanimity).
    AllZero,
    /// Every node holds `1`.
    AllOne,
    /// First `⌈n/2⌉` nodes hold `0`, the rest `1`.
    SplitHalf,
    /// An explicit bit pattern (bit `i` is node `i`'s input; `n ≤ 64`).
    Bits(u64),
    /// `count` distinct assignments sampled with the derived cell seed.
    Random {
        /// How many assignments to draw (clamped to `2^n`).
        count: usize,
    },
    /// All `2^n` assignments (`n ≤ 12`).
    Exhaustive,
}

impl InputPolicy {
    /// The concrete input assignments for an `n`-node cell, in
    /// deterministic order.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when `n` is too large for the policy.
    pub fn assignments(&self, n: usize, cell_seed: u64) -> Result<Vec<InputAssignment>, SpecError> {
        match self {
            InputPolicy::Alternating => Ok(vec![InputAssignment::from_values(
                (0..n).map(|i| lbc_model::Value::from(i % 2 == 1)).collect(),
            )]),
            InputPolicy::AllZero => Ok(vec![InputAssignment::all_zero(n)]),
            InputPolicy::AllOne => Ok(vec![InputAssignment::all_one(n)]),
            InputPolicy::SplitHalf => Ok(vec![InputAssignment::from_values(
                (0..n)
                    .map(|i| lbc_model::Value::from(i >= n.div_ceil(2)))
                    .collect(),
            )]),
            InputPolicy::Bits(bits) => {
                if n > 64 {
                    return Err(SpecError::new("bits input policy requires n <= 64"));
                }
                Ok(vec![InputAssignment::from_bits(n, *bits)])
            }
            InputPolicy::Random { count } => {
                if *count == 0 {
                    return Err(SpecError::new("random input policy requires count >= 1"));
                }
                if u64::try_from(*count).is_ok_and(|c| c > MAX_RANDOM_DRAWS) {
                    return Err(SpecError::new(format!(
                        "random input policy count {count} exceeds the per-cell cap \
                         of {MAX_RANDOM_DRAWS}"
                    )));
                }
                if n > 64 {
                    return Err(SpecError::new("random input policy requires n <= 64"));
                }
                let distinct = if n >= 64 { u64::MAX } else { 1u64 << n };
                if u64::try_from(*count).is_ok_and(|c| c >= distinct) {
                    // Asking for at least all of them: enumerate instead
                    // (the draw cap bounds this at 2^13 assignments).
                    return Ok((0..distinct)
                        .map(|bits| InputAssignment::from_bits(n, bits))
                        .collect());
                }
                let mut rng = ChaCha8Rng::seed_from_u64(cell_seed);
                let mut ordered: Vec<u64> = Vec::new();
                let mut seen: FxHashSet<u64> = FxHashSet::default();
                while ordered.len() < *count {
                    let bits = if n >= 64 {
                        // A full random word: `gen_range(0..u64::MAX)` would
                        // exclude the all-ones assignment.
                        rng.next_u64()
                    } else {
                        rng.gen_range(0..distinct)
                    };
                    if seen.insert(bits) {
                        ordered.push(bits);
                    }
                }
                Ok(ordered
                    .into_iter()
                    .map(|bits| InputAssignment::from_bits(n, bits))
                    .collect())
            }
            InputPolicy::Exhaustive => {
                if n > 12 {
                    return Err(SpecError::new(
                        "exhaustive input policy requires n <= 12; use random",
                    ));
                }
                Ok((0..(1u64 << n))
                    .map(|bits| InputAssignment::from_bits(n, bits))
                    .collect())
            }
        }
    }
}

impl ToJson for InputPolicy {
    fn to_json(&self) -> Json {
        let plain = |name: &str| Json::object([("policy", Json::Str(name.to_string()))]);
        match self {
            InputPolicy::Alternating => plain("alternating"),
            InputPolicy::AllZero => plain("all-zero"),
            InputPolicy::AllOne => plain("all-one"),
            InputPolicy::SplitHalf => plain("split-half"),
            InputPolicy::Exhaustive => plain("exhaustive"),
            // Bit patterns above 2^53 (n >= 54 with a high bit set) are not
            // exactly representable as JSON f64 numbers; emit those as
            // decimal strings, mirroring the seed handling.
            InputPolicy::Bits(bits) => Json::object([
                ("policy", Json::Str("bits".to_string())),
                (
                    "bits",
                    if *bits < (1 << 53) {
                        bits.to_json()
                    } else {
                        Json::Str(bits.to_string())
                    },
                ),
            ]),
            InputPolicy::Random { count } => Json::object([
                ("policy", Json::Str("random".to_string())),
                ("count", count.to_json()),
            ]),
        }
    }
}

impl FromJson for InputPolicy {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let policy = value
            .get("policy")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError {
                message: "input policy requires a 'policy' string".to_string(),
            })?;
        Ok(match policy {
            "alternating" => InputPolicy::Alternating,
            "all-zero" => InputPolicy::AllZero,
            "all-one" => InputPolicy::AllOne,
            "split-half" => InputPolicy::SplitHalf,
            "exhaustive" => InputPolicy::Exhaustive,
            "bits" => InputPolicy::Bits(u64_from_number_or_string(value.get("bits").ok_or_else(
                || JsonError {
                    message: "bits input policy requires 'bits'".to_string(),
                },
            )?)?),
            "random" => InputPolicy::Random {
                count: usize::from_json(value.get("count").ok_or_else(|| JsonError {
                    message: "random input policy requires 'count'".to_string(),
                })?)?,
            },
            other => {
                return Err(JsonError {
                    message: format!("unknown input policy '{other}'"),
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// sweeps and campaigns
// ---------------------------------------------------------------------------

/// One grid of the campaign: a family × sizes × `f` × algorithms ×
/// strategies × fault placements × input assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// The graph family.
    pub family: GraphFamily,
    /// The sizes to instantiate the family at.
    pub sizes: SizeSpec,
    /// The fault bounds to sweep.
    pub f: FRange,
    /// The algorithms to run (`"alg1"`, `"alg2"`, `"p2p"`, `"async"`).
    pub algorithms: Vec<AlgorithmKind>,
    /// The execution regimes to run each algorithm under (defaults to
    /// `["sync"]`; round-machine algorithms reject async regimes at
    /// expansion).
    pub regimes: Vec<RegimeSpec>,
    /// The adversary strategies to drive faulty nodes with.
    pub strategies: Vec<StrategySpec>,
    /// How faulty sets are placed.
    pub faults: FaultPolicy,
    /// How input assignments are chosen.
    pub inputs: InputPolicy,
}

impl ToJson for SweepSpec {
    fn to_json(&self) -> Json {
        Json::object([
            ("family", self.family.to_json()),
            ("sizes", self.sizes.to_json()),
            ("f", self.f.to_json()),
            (
                "algorithms",
                Json::Arr(
                    self.algorithms
                        .iter()
                        .map(|kind| Json::Str(kind.name().to_string()))
                        .collect(),
                ),
            ),
            (
                "regimes",
                Json::Arr(self.regimes.iter().map(ToJson::to_json).collect()),
            ),
            (
                "strategies",
                Json::Arr(self.strategies.iter().map(ToJson::to_json).collect()),
            ),
            ("faults", self.faults.to_json()),
            ("inputs", self.inputs.to_json()),
        ])
    }
}

impl FromJson for SweepSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("sweep missing '{key}'"),
            })
        };
        let algorithms = field("algorithms")?
            .as_array()
            .ok_or_else(|| JsonError {
                message: "'algorithms' must be an array".to_string(),
            })?
            .iter()
            .map(|entry| {
                entry
                    .as_str()
                    .and_then(AlgorithmKind::from_name)
                    .ok_or_else(|| JsonError {
                        message: format!("unknown algorithm '{entry}' (use alg1/alg2/p2p)"),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepSpec {
            family: GraphFamily::from_json(field("family")?)?,
            sizes: SizeSpec::from_json(field("sizes")?)?,
            f: FRange::from_json(field("f")?)?,
            algorithms,
            regimes: match value.get("regimes") {
                None => RegimeSpec::default_axis(),
                Some(json) => Vec::<RegimeSpec>::from_json(json)?,
            },
            strategies: Vec::<StrategySpec>::from_json(field("strategies")?)?,
            faults: FaultPolicy::from_json(field("faults")?)?,
            inputs: InputPolicy::from_json(field("inputs")?)?,
        })
    }
}

/// Spec-level execution limits (the optional `"limits"` block): defaults
/// for the fault-tolerance knobs the CLI flags can override per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LimitsSpec {
    /// Per-cell wall-clock budget in milliseconds; a cell exceeding it is
    /// cancelled cooperatively and recorded as a timeout. `None` leaves
    /// cells unbounded.
    pub cell_timeout_ms: Option<u64>,
}

impl ToJson for LimitsSpec {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(ms) = self.cell_timeout_ms {
            fields.push(("cell-timeout-ms", ms.to_json()));
        }
        Json::object(fields)
    }
}

impl FromJson for LimitsSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(LimitsSpec {
            cell_timeout_ms: value
                .get("cell-timeout-ms")
                .map(u64_from_number_or_string)
                .transpose()?,
        })
    }
}

/// A whole campaign: named, seeded, and made of sweeps, with an optional
/// per-cell adversary-search configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The campaign name (used for report file names and titles).
    pub name: String,
    /// The campaign master seed every derived seed mixes in. Keep it below
    /// `2^53` in spec files: JSON numbers are `f64`, so larger integers are
    /// not exactly representable.
    pub seed: u64,
    /// The sweep grids, expanded in order.
    pub sweeps: Vec<SweepSpec>,
    /// The worst-case search configuration (`lbc search`); `None` makes
    /// `lbc search` fall back to [`crate::search::SearchSpec::default`].
    /// Ignored by the grid executor (`lbc campaign`).
    pub search: Option<crate::search::SearchSpec>,
    /// Optional execution limits (per-cell watchdog budget). `None` keeps
    /// the pre-existing unbounded behaviour.
    pub limits: Option<LimitsSpec>,
    /// The repeated-consensus service configuration (`lbc serve`); `None`
    /// makes `lbc serve` reject the spec. Ignored by the grid executor.
    pub serve: Option<crate::serve::ServeSpec>,
}

/// Validates that a resume artifact (a prior search report or a checkpoint
/// journal) was produced by **this** campaign: its `name` and `seed` must
/// match the spec's, otherwise the restored state would not be reproducible
/// from the spec alone. `what` names the artifact in the error message.
///
/// # Errors
///
/// Returns a [`SpecError`] naming both fingerprints on a mismatch.
pub fn validate_resume_fingerprint(
    prior_name: &str,
    prior_seed: Option<u64>,
    spec: &CampaignSpec,
    what: &str,
) -> Result<(), SpecError> {
    if prior_name != spec.name || prior_seed != Some(spec.seed) {
        return Err(SpecError::new(format!(
            "{what} is from campaign '{prior_name}' (seed {prior_seed:?}), \
             not '{}' (seed {}) — its state would not be reproducible \
             from this spec",
            spec.name, spec.seed
        )));
    }
    Ok(())
}

impl CampaignSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on malformed JSON or an invalid schema.
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        Ok(CampaignSpec::from_json(&Json::parse(text)?)?)
    }

    /// Deterministically expands every sweep into concrete scenarios,
    /// discarding policy-degradation notes. Callers that surface report
    /// metadata use [`CampaignSpec::expand_noted`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CampaignSpec::expand_noted`].
    pub fn expand(&self) -> Result<Vec<Scenario>, SpecError> {
        Ok(self.expand_noted()?.0)
    }

    /// Deterministically expands every sweep into concrete scenarios,
    /// collecting per-cell policy-degradation notes (e.g. a `random` fault
    /// policy that fell back to exhaustive enumeration) for the report
    /// metadata.
    ///
    /// Expansion order is the nesting order `sweep → size → f → algorithm →
    /// strategy → fault placement → input assignment`; the scenario index is
    /// the position in that order and feeds the per-scenario seed.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when a family/size combination is invalid,
    /// a policy cap is exceeded, the grid exceeds [`MAX_SCENARIOS`], or a
    /// sweep dimension is empty — an empty grid would make a `--strict`
    /// campaign pass vacuously, so it is rejected rather than ignored.
    pub fn expand_noted(&self) -> Result<(Vec<Scenario>, Vec<String>), SpecError> {
        let mut notes = Vec::new();
        if self.sweeps.is_empty() {
            return Err(SpecError::new("campaign has no sweeps"));
        }
        let mut scenarios = Vec::new();
        for (sweep_index, sweep) in self.sweeps.iter().enumerate() {
            if sweep.algorithms.is_empty() || sweep.strategies.is_empty() {
                return Err(SpecError::new(format!(
                    "sweep {sweep_index} needs at least one algorithm and one strategy"
                )));
            }
            if sweep.regimes.is_empty() {
                return Err(SpecError::new(format!(
                    "sweep {sweep_index} has an empty regime list"
                )));
            }
            for &algorithm in &sweep.algorithms {
                for regime in &sweep.regimes {
                    if !regime.is_sync() && !algorithm.supports_regime(&regime.materialize(0)) {
                        return Err(SpecError::new(format!(
                            "sweep {sweep_index}: algorithm '{}' is a synchronous round \
                             machine and cannot run under regime '{}' (use the 'async' \
                             algorithm for asynchronous regimes)",
                            algorithm.name(),
                            regime.label()
                        )));
                    }
                }
            }
            if sweep.sizes.values().is_empty() {
                return Err(SpecError::new(format!(
                    "sweep {sweep_index} has an empty size list"
                )));
            }
            if sweep.f.from > sweep.f.to {
                return Err(SpecError::new(format!(
                    "sweep {sweep_index} has an inverted f range ({}..{})",
                    sweep.f.from, sweep.f.to
                )));
            }
            for n in sweep.sizes.values() {
                sweep.family.check(n)?;
                let graph = sweep.family.build(n);
                for f in sweep.f.from..=sweep.f.to {
                    let cell = [self.seed, sweep_index as u64, n as u64, f as u64];
                    let (placements, fault_note) = sweep.faults.placements_noted(
                        &graph,
                        f,
                        mix_seed(&[SALT_FAULTS, cell[0], cell[1], cell[2], cell[3]]),
                    )?;
                    if let Some(note) = fault_note {
                        notes.push(format!(
                            "sweep {sweep_index} {} f={f}: {note}",
                            sweep.family.label(n)
                        ));
                    }
                    let input_sets = sweep.inputs.assignments(
                        n,
                        mix_seed(&[SALT_INPUTS, cell[0], cell[1], cell[2], cell[3]]),
                    )?;
                    for &algorithm in &sweep.algorithms {
                        let feasible = match algorithm {
                            AlgorithmKind::Algorithm1 => {
                                conditions::local_broadcast_feasible(&graph, f)
                            }
                            AlgorithmKind::Algorithm2 => {
                                conditions::efficient_algorithm_applicable(&graph, f)
                            }
                            AlgorithmKind::P2pBaseline => {
                                conditions::point_to_point_feasible(&graph, f)
                            }
                            AlgorithmKind::AsyncFlood => {
                                conditions::asynchronous_feasible(&graph, f)
                            }
                        };
                        for regime in &sweep.regimes {
                            for strategy in &sweep.strategies {
                                for faulty in &placements {
                                    for inputs in &input_sets {
                                        let index = scenarios.len();
                                        if index >= MAX_SCENARIOS {
                                            return Err(SpecError::new(format!(
                                                "campaign expands past {MAX_SCENARIOS} scenarios"
                                            )));
                                        }
                                        let seed =
                                            mix_seed(&[SALT_SCENARIO, self.seed, index as u64]);
                                        scenarios.push(Scenario {
                                            index,
                                            family: sweep.family.clone(),
                                            graph: sweep.family.label(n),
                                            n,
                                            f,
                                            algorithm,
                                            regime: regime.materialize(seed),
                                            strategy: strategy.materialize(seed),
                                            strategy_name: strategy.name(),
                                            faulty: faulty.clone(),
                                            inputs: inputs.clone(),
                                            seed,
                                            feasible,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok((scenarios, notes))
    }
}

impl ToJson for CampaignSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.to_json()),
            ("seed", self.seed.to_json()),
            (
                "sweeps",
                Json::Arr(self.sweeps.iter().map(ToJson::to_json).collect()),
            ),
        ];
        if let Some(search) = &self.search {
            fields.push(("search", search.to_json()));
        }
        if let Some(limits) = &self.limits {
            fields.push(("limits", limits.to_json()));
        }
        if let Some(serve) = &self.serve {
            fields.push(("serve", serve.to_json()));
        }
        Json::object(fields)
    }
}

impl FromJson for CampaignSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("campaign missing '{key}'"),
            })
        };
        Ok(CampaignSpec {
            name: String::from_json(field("name")?)?,
            seed: u64::from_json(field("seed")?)?,
            sweeps: Vec::<SweepSpec>::from_json(field("sweeps")?)?,
            search: value
                .get("search")
                .map(crate::search::SearchSpec::from_json)
                .transpose()?,
            limits: value.get("limits").map(LimitsSpec::from_json).transpose()?,
            serve: value
                .get("serve")
                .map(crate::serve::ServeSpec::from_json)
                .transpose()?,
        })
    }
}

// ---------------------------------------------------------------------------
// concrete scenarios
// ---------------------------------------------------------------------------

/// One fully concrete execution: everything the executor needs, fixed at
/// expansion time. Scenarios are self-contained (they rebuild their graph
/// locally), so workers share no mutable state.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the campaign's expansion order.
    pub index: usize,
    /// The family this scenario instantiates.
    pub family: GraphFamily,
    /// The instance label (e.g. `C9(1,2)`).
    pub graph: String,
    /// Number of nodes.
    pub n: usize,
    /// The declared fault bound the algorithm is configured with.
    pub f: usize,
    /// The algorithm to run.
    pub algorithm: AlgorithmKind,
    /// The materialized (pre-seeded) execution regime.
    pub regime: Regime,
    /// The materialized (pre-seeded) adversary strategy.
    pub strategy: Strategy,
    /// The stable strategy name for grouping.
    pub strategy_name: &'static str,
    /// The faulty set of this execution.
    pub faulty: NodeSet,
    /// The input assignment of this execution.
    pub inputs: InputAssignment,
    /// The derived per-scenario seed (drives `random` strategies).
    pub seed: u64,
    /// Whether the paper's conditions admit this `(graph, f, algorithm)`.
    pub feasible: bool,
}

impl Scenario {
    /// Builds this scenario's graph instance.
    #[must_use]
    pub fn build_graph(&self) -> Graph {
        self.family.build(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".to_string(),
            seed: 11,
            sweeps: vec![SweepSpec {
                family: GraphFamily::Cycle,
                sizes: SizeSpec::List(vec![5]),
                f: FRange::exactly(1),
                algorithms: vec![AlgorithmKind::Algorithm1],
                regimes: RegimeSpec::default_axis(),
                strategies: vec![
                    StrategySpec::TamperRelays,
                    StrategySpec::Random { seed: None },
                ],
                faults: FaultPolicy::Exhaustive,
                inputs: InputPolicy::Alternating,
            }],
            search: None,
            limits: None,
            serve: None,
        }
    }

    #[test]
    fn expansion_counts_and_indexes() {
        let scenarios = minimal_spec().expand().unwrap();
        // 1 size × 1 f × 1 algorithm × 2 strategies × 5 placements × 1 input.
        assert_eq!(scenarios.len(), 10);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.n, 5);
            assert_eq!(s.faulty.len(), 1);
            assert!(s.feasible);
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = minimal_spec().expand().unwrap();
        let b = minimal_spec().expand().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.faulty, y.faulty);
            assert_eq!(x.inputs, y.inputs);
            assert_eq!(x.strategy, y.strategy);
        }
    }

    #[test]
    fn derived_random_seeds_differ_per_scenario() {
        let scenarios = minimal_spec().expand().unwrap();
        let seeds: Vec<u64> = scenarios
            .iter()
            .filter(|s| s.strategy_name == "random")
            .map(|s| match s.strategy {
                Strategy::Random { seed } => seed,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seeds.len(), 5);
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn campaign_seed_changes_derived_draws() {
        let mut other = minimal_spec();
        other.seed = 12;
        let a = minimal_spec().expand().unwrap();
        let b = other.expand().unwrap();
        assert!(a.iter().zip(&b).any(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn random_fault_policy_is_seeded_and_distinct() {
        let graph = generators::cycle(9);
        let policy = FaultPolicy::Random { count: 4 };
        let a = policy.placements(&graph, 2, 77).unwrap();
        let b = policy.placements(&graph, 2, 77).unwrap();
        let c = policy.placements(&graph, 2, 78).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 4);
        for (i, x) in a.iter().enumerate() {
            assert_eq!(x.len(), 2);
            for y in &a[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn worst_case_policy_packs_faults_around_the_min_degree_victim() {
        // Wheel W6: hub 0 has degree 5, rim nodes degree 3. The victim is a
        // rim node; its rim neighbors come before the hub.
        let graph = generators::wheel(6);
        let placements = FaultPolicy::WorstCase.placements(&graph, 2, 0).unwrap();
        assert_eq!(placements.len(), 1);
        let set = &placements[0];
        assert_eq!(set.len(), 2);
        assert!(!set.contains(NodeId::new(0)), "hub chosen over rim: {set}");
    }

    #[test]
    fn fixed_policy_filters_by_f_and_validates_range() {
        let graph = generators::cycle(5);
        let policy = FaultPolicy::Fixed(vec![vec![1], vec![0, 2], vec![4]]);
        let f1 = policy.placements(&graph, 1, 0).unwrap();
        assert_eq!(f1.len(), 2);
        let f2 = policy.placements(&graph, 2, 0).unwrap();
        assert_eq!(f2.len(), 1);
        let bad = FaultPolicy::Fixed(vec![vec![9]]);
        assert!(bad.placements(&graph, 1, 0).is_err());
    }

    #[test]
    fn explicit_policy_accepts_sets_below_f_and_rejects_oversized_ones() {
        let graph = generators::cycle(5);
        // A single fault under a declared bound of f = 2: exactly the shape
        // a minimized search counterexample replays.
        let policy = FaultPolicy::Explicit(vec![vec![1]]);
        let placements = policy.placements(&graph, 2, 0).unwrap();
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].len(), 1);
        assert!(FaultPolicy::Explicit(vec![vec![0, 1, 2]])
            .placements(&graph, 2, 0)
            .is_err());
        assert!(FaultPolicy::Explicit(vec![vec![9]])
            .placements(&graph, 2, 0)
            .is_err());
        assert!(FaultPolicy::Explicit(vec![])
            .placements(&graph, 2, 0)
            .is_err());
    }

    #[test]
    fn bits_input_policy_roundtrips_past_the_f64_limit() {
        // Bit 63 set: a JSON number would round this; the string form must
        // carry it exactly, and small patterns stay plain numbers.
        let wide = InputPolicy::Bits(1u64 << 63 | 0b101);
        let text = wide.to_json().to_string();
        assert!(text.contains('"'), "wide bits must serialize as a string");
        assert_eq!(
            InputPolicy::from_json(&Json::parse(&text).unwrap()).unwrap(),
            wide
        );
        let narrow = InputPolicy::Bits(13);
        let text = narrow.to_json().to_string();
        assert!(text.contains("13"));
        assert_eq!(
            InputPolicy::from_json(&Json::parse(&text).unwrap()).unwrap(),
            narrow
        );
    }

    #[test]
    fn random_fallback_to_exhaustive_is_noted() {
        let graph = generators::cycle(5);
        let (all, note) = FaultPolicy::Random { count: 10 }
            .placements_noted(&graph, 1, 0)
            .unwrap();
        assert_eq!(all.len(), 5);
        let note = note.expect("exhaustive fallback must be noted");
        assert!(note.contains("enumerated all placements"), "{note}");
        // Genuine sampling carries no note.
        let (sampled, none) = FaultPolicy::Random { count: 2 }
            .placements_noted(&graph, 1, 0)
            .unwrap();
        assert_eq!(sampled.len(), 2);
        assert!(none.is_none());
    }

    #[test]
    fn input_policies_produce_expected_shapes() {
        assert_eq!(
            InputPolicy::Alternating.assignments(4, 0).unwrap()[0].to_string(),
            "0101"
        );
        assert_eq!(
            InputPolicy::SplitHalf.assignments(5, 0).unwrap()[0].to_string(),
            "00011"
        );
        assert_eq!(InputPolicy::Exhaustive.assignments(3, 0).unwrap().len(), 8);
        assert!(InputPolicy::Exhaustive.assignments(13, 0).is_err());
        let random = InputPolicy::Random { count: 3 }.assignments(6, 5).unwrap();
        assert_eq!(random.len(), 3);
        assert_eq!(
            random,
            InputPolicy::Random { count: 3 }.assignments(6, 5).unwrap()
        );
    }

    #[test]
    fn exhaustive_fault_cap_is_enforced() {
        let graph = generators::complete(40);
        assert!(FaultPolicy::Exhaustive.placements(&graph, 12, 0).is_err());
    }

    #[test]
    fn random_fault_policy_rejects_unsatisfiable_counts_instead_of_spinning() {
        // C(20, 6) = 38,760 > MAX_EXHAUSTIVE_PLACEMENTS: a count >= total
        // must error (it can neither be sampled to completion nor
        // enumerated), not loop forever.
        let graph = generators::complete(20);
        assert!(FaultPolicy::Random { count: 40_000 }
            .placements(&graph, 6, 0)
            .is_err());
        assert!(FaultPolicy::Random { count: 0 }
            .placements(&graph, 1, 0)
            .is_err());
        // Asking for >= all of a small cell still enumerates exhaustively.
        let small = generators::cycle(5);
        let all = FaultPolicy::Random { count: 10 }
            .placements(&small, 1, 0)
            .unwrap();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn empty_grid_dimensions_are_rejected_not_vacuous() {
        let mut spec = minimal_spec();
        spec.sweeps[0].sizes = SizeSpec::List(vec![]);
        assert!(spec.expand().is_err());

        let mut spec = minimal_spec();
        spec.sweeps[0].f = FRange { from: 2, to: 1 };
        assert!(spec.expand().is_err());

        let mut spec = minimal_spec();
        spec.sweeps.clear();
        assert!(spec.expand().is_err());

        assert!(InputPolicy::Random { count: 0 }.assignments(5, 0).is_err());
    }

    #[test]
    fn random_draw_caps_are_enforced() {
        let graph = generators::complete(30);
        assert!(FaultPolicy::Random { count: 9_000 }
            .placements(&graph, 3, 0)
            .is_err());
        assert!(InputPolicy::Random { count: 9_000 }
            .assignments(30, 0)
            .is_err());
        // Asking for at least all 2^n inputs of a small cell enumerates.
        let all = InputPolicy::Random { count: 100 }
            .assignments(4, 0)
            .unwrap();
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn spec_json_roundtrip_with_every_policy_flavour() {
        let spec = CampaignSpec {
            name: "roundtrip".to_string(),
            seed: 99,
            sweeps: vec![
                SweepSpec {
                    family: GraphFamily::Circulant {
                        offsets: vec![1, 2],
                    },
                    sizes: SizeSpec::Range {
                        from: 9,
                        to: 13,
                        step: 2,
                    },
                    f: FRange { from: 1, to: 2 },
                    algorithms: vec![AlgorithmKind::Algorithm1, AlgorithmKind::Algorithm2],
                    regimes: RegimeSpec::default_axis(),
                    strategies: vec![
                        StrategySpec::Silent,
                        StrategySpec::CrashAfter(4),
                        StrategySpec::Random { seed: Some(3) },
                        StrategySpec::Random { seed: None },
                        StrategySpec::Sleeper { honest_rounds: 2 },
                    ],
                    faults: FaultPolicy::Random { count: 3 },
                    inputs: InputPolicy::Bits(0b1011),
                },
                SweepSpec {
                    family: GraphFamily::Harary { k: 4 },
                    sizes: SizeSpec::List(vec![9, 11]),
                    f: FRange::exactly(2),
                    algorithms: vec![AlgorithmKind::P2pBaseline],
                    regimes: RegimeSpec::default_axis(),
                    strategies: vec![StrategySpec::Equivocate],
                    faults: FaultPolicy::Fixed(vec![vec![0, 1]]),
                    inputs: InputPolicy::Random { count: 2 },
                },
            ],
            search: Some(crate::search::SearchSpec {
                budget: 64,
                beam: 3,
                mutations: 5,
                rounds: 4,
            }),
            limits: None,
            serve: None,
        };
        let text = spec.to_json().pretty();
        let back = CampaignSpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn family_constraints_are_validated() {
        assert!(GraphFamily::Cycle.check(2).is_err());
        assert!(GraphFamily::Hypercube.check(6).is_err());
        assert!(GraphFamily::Hypercube.check(8).is_ok());
        assert!(GraphFamily::Fig1a.check(6).is_err());
        assert!(GraphFamily::Harary { k: 4 }.check(4).is_err());
        assert!(GraphFamily::Circulant { offsets: vec![] }.check(9).is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GraphFamily::Cycle.label(7), "C7");
        assert_eq!(
            GraphFamily::Circulant {
                offsets: vec![1, 2]
            }
            .label(9),
            "C9(1,2)"
        );
        assert_eq!(GraphFamily::Harary { k: 4 }.label(13), "H4,13");
        assert_eq!(GraphFamily::Hypercube.label(8), "Q3");
    }
}
