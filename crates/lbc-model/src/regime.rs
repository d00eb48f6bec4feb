//! Execution regimes: how the simulated network schedules deliveries.
//!
//! The round loop of `lbc-sim` used to *be* the synchronous model — every
//! transmission of round `r` delivered to every receiver at round `r + 1`,
//! with no way to express anything else. A [`Regime`] makes the scheduling
//! discipline a first-class value threaded through the simulator (and the
//! campaign spec surface):
//!
//! * [`Regime::Synchronous`] — the classical lockstep rounds of the source
//!   paper (Khan–Naqvi–Vaidya, PODC 2019). Every message is delivered
//!   exactly one step after it is sent.
//! * [`Regime::Asynchronous`] — adversary-controlled but **eventually fair**
//!   delivery, the undirected asynchronous variant of the local broadcast
//!   line (arXiv:1909.02865): each transmission is delivered to each
//!   neighbor after a per-receiver lag of at most [`AsyncRegime::delay`]
//!   steps, chosen by a deterministic seeded [`SchedulerKind`]. Per-edge
//!   FIFO order is always preserved — a physical local-broadcast channel
//!   delivers a sender's transmissions to each neighbor in transmission
//!   order, even when different neighbors observe different lags, which is
//!   what keeps the flood fabric's same-first-message-per-key invariant
//!   intact across regimes.
//!
//! * [`Regime::PartialSync`] — the classical partial-synchrony model
//!   (Dwork–Lynch–Stockmeyer): before a Global Stabilization Time `gst`
//!   the adversary controls delivery through an [`AdversarialSchedule`]
//!   (transmissions of held senders are delayed arbitrarily-but-finitely
//!   and burst-released at GST), after `gst` delivery reverts to a seeded
//!   eventually-fair [`AsyncRegime`] with bound `D`. Per-edge FIFO order
//!   is still preserved — holds are per-*sender*, so a held edge releases
//!   its backlog in transmission order.
//!
//! The regime is part of a scenario's identity: campaign specs carry it as
//! an axis, reports record it per row, and `NodeContext` exposes it to
//! protocols (the asynchronous consensus algorithm reads the fairness bound
//! and the stabilization time from it to place its decision horizon).

use std::fmt;

use crate::json::{u64_from_number_or_string, FromJson, Json, JsonError, ToJson};

/// Hard cap on the eventual-fairness bound accepted from specs and CLI
/// JSON. Larger bounds add no new delivery *orders* — they only stretch
/// executions linearly — and an unbounded value would let a spec demand a
/// `delay + 1`-bucket schedule ring and an `O(n · delay)`-step run.
pub const MAX_DELAY: u32 = 4096;

/// Hard cap on the Global Stabilization Time accepted from specs and CLI
/// JSON, for the same reason as [`MAX_DELAY`]: a larger GST only stretches
/// executions linearly while every interesting timing attack already fits
/// well below it.
pub const MAX_GST: u32 = 4096;

/// The adversary-controlled pre-GST delivery schedule of a partial-synchrony
/// regime: a set of *held* senders whose transmissions sent before GST are
/// withheld and burst-released (in per-edge transmission order) at GST.
///
/// The hold-set is a bitmask over node ids, which keeps [`Regime`] `Copy`
/// and makes schedule identity a single-word comparison; nodes `>= 64` can
/// never be held (campaign search already restricts replayable schedule
/// fragments to `n <= 64` for the same reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AdversarialSchedule {
    /// Bit `i` set ⇔ node `i`'s pre-GST transmissions are held until GST.
    pub hold: u64,
}

impl AdversarialSchedule {
    /// A schedule holding nothing: partial synchrony degenerates to the
    /// post-GST asynchronous regime from step 0.
    #[must_use]
    pub fn empty() -> Self {
        AdversarialSchedule { hold: 0 }
    }

    /// A schedule holding exactly the given nodes (ids `>= 64` are ignored).
    #[must_use]
    pub fn holding(nodes: &[usize]) -> Self {
        let mut hold = 0u64;
        for &node in nodes {
            if node < 64 {
                hold |= 1 << node;
            }
        }
        AdversarialSchedule { hold }
    }

    /// Whether `node`'s pre-GST transmissions are withheld until GST.
    #[must_use]
    pub fn holds(&self, node: usize) -> bool {
        node < 64 && self.hold & (1 << node) != 0
    }

    /// The held node ids, ascending.
    #[must_use]
    pub fn held_nodes(&self) -> Vec<usize> {
        (0..64).filter(|&node| self.holds(node)).collect()
    }

    /// How many nodes are held.
    #[must_use]
    pub fn held_count(&self) -> u32 {
        self.hold.count_ones()
    }
}

/// The deterministic delivery-schedule family of an asynchronous execution.
///
/// All schedulers are pure functions of `(seed, edge)`; two runs with the
/// same regime value produce the same schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Uniform lag 1: every transmission is delivered at the next step.
    /// Timing-equivalent to the synchronous regime (the baseline scheduler).
    Fifo,
    /// A seeded victim node observes the maximum allowed lag on every
    /// incident edge (in both directions); everyone else runs at lag 1.
    /// This is the delay-maximizing adversary of the regime: it starves one
    /// node of fresh information for as long as fairness allows.
    DelayMax,
    /// Every edge gets its own fixed lag in `1..=delay`, drawn from the
    /// seed — persistent per-edge skew, the schedule shape that reorders
    /// deliveries across different senders the most.
    EdgeLag,
}

impl SchedulerKind {
    /// The stable scheduler name used in specs, reports and labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::DelayMax => "delay-max",
            SchedulerKind::EdgeLag => "edge-lag",
        }
    }

    /// Parses the stable name produced by [`SchedulerKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "fifo" => SchedulerKind::Fifo,
            "delay-max" => SchedulerKind::DelayMax,
            "edge-lag" => SchedulerKind::EdgeLag,
            _ => return None,
        })
    }

    /// Every scheduler, in stable order.
    #[must_use]
    pub fn all() -> [SchedulerKind; 3] {
        [
            SchedulerKind::Fifo,
            SchedulerKind::DelayMax,
            SchedulerKind::EdgeLag,
        ]
    }
}

/// A concrete asynchronous regime: scheduler family, fairness bound, seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsyncRegime {
    /// The deterministic schedule family.
    pub scheduler: SchedulerKind,
    /// The eventual-fairness bound `D ≥ 1`: every transmission is delivered
    /// to every receiver within `D` steps of being sent. This is the bound
    /// the asynchronous consensus algorithm's decision horizon is placed
    /// against.
    pub delay: u32,
    /// The seed all schedule draws derive from.
    pub seed: u64,
}

impl AsyncRegime {
    /// The per-receiver lag (in steps, `1..=delay`) of a transmission
    /// travelling `from → to`. A pure deterministic function of the seed
    /// and the edge — a *fixed* per-edge lag is what produces persistent
    /// cross-sender skew while keeping per-edge FIFO trivially satisfied —
    /// and the simulator additionally clamps deliveries to per-edge FIFO
    /// order. Since a lag depends only on the edge, the simulator calls
    /// this once per directed edge per chain and keeps the answers in a
    /// table.
    #[must_use]
    pub fn lag(&self, from: usize, to: usize, node_count: usize) -> u64 {
        // `delay == 0` is rejected at every construction surface (JSON
        // parse and spec expansion), so a zero here is a hand-built regime
        // that slipped past validation — fail loudly instead of clamping.
        assert!(self.delay >= 1, "AsyncRegime.delay must be >= 1");
        let delay = u64::from(self.delay);
        match self.scheduler {
            SchedulerKind::Fifo => 1,
            SchedulerKind::DelayMax => {
                let victim = (split_mix(self.seed) % node_count.max(1) as u64) as usize;
                if from == victim || to == victim {
                    delay
                } else {
                    1
                }
            }
            SchedulerKind::EdgeLag => {
                let word = split_mix(
                    self.seed ^ ((from as u64) << 32 | to as u64).wrapping_mul(0x9E37_79B9),
                );
                1 + word % delay
            }
        }
    }

    /// A compact label without the seed (seeds are derived per scenario and
    /// recorded separately), used for report rows and rollup grouping.
    #[must_use]
    pub fn label(&self) -> String {
        format!("async-{}-d{}", self.scheduler.name(), self.delay)
    }
}

/// One SplitMix64 finalizer step — the same mixer the campaign seed
/// derivation uses, kept local so `lbc-model` stays dependency-free.
#[must_use]
fn split_mix(word: u64) -> u64 {
    let mut z = word.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parses the `"scheduler"` field of an async regime object (defaulting to
/// [`SchedulerKind::EdgeLag`]). Shared by [`Regime::from_json`] and the
/// campaign spec's `RegimeSpec` parser so the two schemas cannot drift.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the unknown scheduler.
pub fn scheduler_from_json(value: &Json) -> Result<SchedulerKind, JsonError> {
    match value.get("scheduler").and_then(Json::as_str) {
        None => Ok(SchedulerKind::EdgeLag),
        Some(name) => SchedulerKind::from_name(name).ok_or_else(|| JsonError {
            message: format!("unknown scheduler '{name}' (use fifo/delay-max/edge-lag)"),
        }),
    }
}

/// Parses the `"delay"` field of an async regime object (defaulting to 3),
/// enforcing `1..=MAX_DELAY`. Shared with the campaign spec parser.
///
/// # Errors
///
/// Returns a [`JsonError`] when the value is malformed or out of range.
pub fn delay_from_json(value: &Json) -> Result<u32, JsonError> {
    match value.get("delay") {
        None => Ok(3),
        Some(json) => {
            let raw = u64::from_json(json)?;
            u32::try_from(raw)
                .ok()
                .filter(|d| (1..=MAX_DELAY).contains(d))
                .ok_or_else(|| JsonError {
                    message: format!("regime delay {raw} out of range (1..={MAX_DELAY})"),
                })
        }
    }
}

/// Parses the `"gst"` field of a partial-sync regime object, enforcing
/// `1..=MAX_GST`. A `gst` of 0 is the asynchronous regime by definition —
/// the error says so instead of silently degenerating. Shared with the
/// campaign spec parser.
///
/// # Errors
///
/// Returns a [`JsonError`] when the value is missing, malformed or out of
/// range.
pub fn gst_from_json(value: &Json) -> Result<u32, JsonError> {
    let json = value.get("gst").ok_or_else(|| JsonError {
        message: "partial-sync regime requires a 'gst' field".to_string(),
    })?;
    let raw = u64::from_json(json)?;
    u32::try_from(raw)
        .ok()
        .filter(|g| (1..=MAX_GST).contains(g))
        .ok_or_else(|| JsonError {
            message: if raw == 0 {
                "gst 0 is the asynchronous regime — use {\"kind\": \"async\", ...}".to_string()
            } else {
                format!("regime gst {raw} out of range (1..={MAX_GST})")
            },
        })
}

/// Parses the `"hold"` field of a partial-sync regime object (defaulting to
/// an empty hold-set): an array of held node indices, each `< 64`. Shared
/// with the campaign spec parser.
///
/// # Errors
///
/// Returns a [`JsonError`] when the value is malformed or a node is out of
/// range.
pub fn hold_from_json(value: &Json) -> Result<AdversarialSchedule, JsonError> {
    let Some(json) = value.get("hold") else {
        return Ok(AdversarialSchedule::empty());
    };
    let items = json.as_array().ok_or_else(|| JsonError {
        message: "partial-sync 'hold' must be an array of node indices".to_string(),
    })?;
    let mut schedule = AdversarialSchedule::empty();
    for item in items {
        let node = u64::from_json(item)?;
        if node >= 64 {
            return Err(JsonError {
                message: format!("held node {node} out of range (hold-sets cover nodes 0..64)"),
            });
        }
        schedule.hold |= 1 << node;
    }
    Ok(schedule)
}

/// The execution regime of a simulated run. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Regime {
    /// Lockstep synchronous rounds (the source paper's model).
    #[default]
    Synchronous,
    /// Eventually-fair asynchronous delivery under a deterministic seeded
    /// scheduler.
    Asynchronous(AsyncRegime),
    /// Partial synchrony: adversary-scheduled delivery before `gst`,
    /// eventually-fair delivery (the `post` regime) from `gst` on.
    PartialSync {
        /// The Global Stabilization Time, in scheduler steps (`>= 1`; a
        /// GST of 0 *is* the asynchronous regime and is rejected at parse).
        gst: u32,
        /// The adversary-controlled pre-GST schedule.
        pre: AdversarialSchedule,
        /// The eventually-fair regime delivery reverts to at `gst`.
        post: AsyncRegime,
    },
}

impl Regime {
    /// Whether this is the synchronous regime.
    #[must_use]
    pub fn is_synchronous(&self) -> bool {
        matches!(self, Regime::Synchronous)
    }

    /// The fairness bound `D` that holds *after* [`stabilization
    /// time`](Regime::stabilization_time): the maximum number of steps
    /// between a transmission and any of its deliveries. `1` for the
    /// synchronous regime, [`AsyncRegime::delay`] otherwise.
    #[must_use]
    pub fn delay_bound(&self) -> u64 {
        match self {
            Regime::Synchronous => 1,
            Regime::Asynchronous(config) => u64::from(config.delay),
            Regime::PartialSync { post, .. } => u64::from(post.delay),
        }
    }

    /// The Global Stabilization Time: the step from which the fairness
    /// bound [`delay_bound`](Regime::delay_bound) is guaranteed. `0` for
    /// the synchronous and asynchronous regimes (fair from the start),
    /// `gst` for partial synchrony. Protocols that place decision horizons
    /// against the fairness bound must offset them by this value.
    #[must_use]
    pub fn stabilization_time(&self) -> u64 {
        match self {
            Regime::Synchronous | Regime::Asynchronous(_) => 0,
            Regime::PartialSync { gst, .. } => u64::from(*gst),
        }
    }

    /// The regime label used by report rows and rollups: `sync`,
    /// `async-<scheduler>-d<delay>`, or
    /// `psync-g<gst>-h<hold:x>-<post label>` (the hold-set in hex so
    /// distinct schedules never alias in diff identities).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Regime::Synchronous => "sync".to_string(),
            Regime::Asynchronous(config) => config.label(),
            Regime::PartialSync { gst, pre, post } => {
                format!("psync-g{gst}-h{:x}-{}", pre.hold, post.label())
            }
        }
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl ToJson for Regime {
    /// Serializes to the campaign-spec schema: the bare string `"sync"`, or
    /// an object `{"kind": "async", "scheduler": …, "delay": …, "seed": …}`
    /// with the seed as a string (derived seeds use all 64 bits, which a
    /// JSON `f64` number would silently round).
    fn to_json(&self) -> Json {
        match self {
            Regime::Synchronous => Json::Str("sync".to_string()),
            Regime::Asynchronous(config) => Json::object([
                ("kind", Json::Str("async".to_string())),
                ("scheduler", Json::Str(config.scheduler.name().to_string())),
                ("delay", u64::from(config.delay).to_json()),
                ("seed", Json::Str(config.seed.to_string())),
            ]),
            Regime::PartialSync { gst, pre, post } => Json::object([
                ("kind", Json::Str("partial-sync".to_string())),
                ("gst", u64::from(*gst).to_json()),
                (
                    "hold",
                    Json::Arr(
                        pre.held_nodes()
                            .into_iter()
                            .map(|node| (node as u64).to_json())
                            .collect(),
                    ),
                ),
                ("scheduler", Json::Str(post.scheduler.name().to_string())),
                ("delay", u64::from(post.delay).to_json()),
                ("seed", Json::Str(post.seed.to_string())),
            ]),
        }
    }
}

impl FromJson for Regime {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = value
            .as_str()
            .or_else(|| value.get("kind").and_then(Json::as_str))
            .ok_or_else(|| JsonError {
                message: "regime must be a name or an object with 'kind'".to_string(),
            })?;
        match kind {
            "sync" | "synchronous" => Ok(Regime::Synchronous),
            "async" | "asynchronous" => Ok(Regime::Asynchronous(AsyncRegime {
                scheduler: scheduler_from_json(value)?,
                delay: delay_from_json(value)?,
                seed: value
                    .get("seed")
                    .map(u64_from_number_or_string)
                    .transpose()?
                    .unwrap_or(0),
            })),
            "partial-sync" | "psync" => Ok(Regime::PartialSync {
                gst: gst_from_json(value)?,
                pre: hold_from_json(value)?,
                post: AsyncRegime {
                    scheduler: scheduler_from_json(value)?,
                    delay: delay_from_json(value)?,
                    seed: value
                        .get("seed")
                        .map(u64_from_number_or_string)
                        .transpose()?
                        .unwrap_or(0),
                },
            }),
            other => Err(JsonError {
                message: format!("unknown regime '{other}' (use sync, async or partial-sync)"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_bounds() {
        assert_eq!(Regime::Synchronous.label(), "sync");
        assert_eq!(Regime::Synchronous.delay_bound(), 1);
        let regime = Regime::Asynchronous(AsyncRegime {
            scheduler: SchedulerKind::EdgeLag,
            delay: 4,
            seed: 9,
        });
        assert_eq!(regime.label(), "async-edge-lag-d4");
        assert_eq!(regime.delay_bound(), 4);
        assert!(!regime.is_synchronous());
        assert!(Regime::default().is_synchronous());
        let psync = Regime::PartialSync {
            gst: 12,
            pre: AdversarialSchedule::holding(&[1, 5]),
            post: AsyncRegime {
                scheduler: SchedulerKind::Fifo,
                delay: 2,
                seed: 7,
            },
        };
        assert_eq!(psync.label(), "psync-g12-h22-async-fifo-d2");
        assert_eq!(psync.delay_bound(), 2);
        assert_eq!(psync.stabilization_time(), 12);
        assert_eq!(Regime::Synchronous.stabilization_time(), 0);
        assert_eq!(regime.stabilization_time(), 0);
        assert!(!psync.is_synchronous());
    }

    #[test]
    fn hold_sets_are_bitmasks_over_small_node_ids() {
        let schedule = AdversarialSchedule::holding(&[0, 3, 63, 64, 200]);
        assert!(schedule.holds(0));
        assert!(schedule.holds(3));
        assert!(schedule.holds(63));
        assert!(!schedule.holds(64));
        assert!(!schedule.holds(1));
        assert_eq!(schedule.held_nodes(), vec![0, 3, 63]);
        assert_eq!(schedule.held_count(), 3);
        assert_eq!(AdversarialSchedule::empty().held_count(), 0);
        assert!(AdversarialSchedule::empty().held_nodes().is_empty());
    }

    #[test]
    fn scheduler_names_roundtrip() {
        for kind in SchedulerKind::all() {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_name("banyan"), None);
    }

    #[test]
    fn lags_respect_the_fairness_bound_and_are_deterministic() {
        for kind in SchedulerKind::all() {
            let regime = AsyncRegime {
                scheduler: kind,
                delay: 5,
                seed: 1234,
            };
            for from in 0..6 {
                for to in 0..6 {
                    let lag = regime.lag(from, to, 6);
                    assert!(
                        (1..=5).contains(&lag),
                        "{}: lag {lag} out of bounds",
                        kind.name()
                    );
                    assert_eq!(lag, regime.lag(from, to, 6));
                }
            }
        }
    }

    #[test]
    fn delay_max_lags_only_the_victim() {
        let regime = AsyncRegime {
            scheduler: SchedulerKind::DelayMax,
            delay: 7,
            seed: 3,
        };
        let victim = (split_mix(regime.seed) % 5) as usize;
        for from in 0..5 {
            for to in 0..5 {
                let expected = if from == victim || to == victim { 7 } else { 1 };
                assert_eq!(regime.lag(from, to, 5), expected);
            }
        }
    }

    #[test]
    fn edge_lag_differs_across_edges_for_most_seeds() {
        let regime = AsyncRegime {
            scheduler: SchedulerKind::EdgeLag,
            delay: 6,
            seed: 42,
        };
        let lags: Vec<u64> = (0..8).map(|to| regime.lag(0, to, 9)).collect();
        assert!(
            lags.iter().any(|&l| l != lags[0]),
            "all edges drew the same lag: {lags:?}"
        );
    }

    #[test]
    fn regime_json_roundtrips_with_full_seed_fidelity() {
        let regimes = [
            Regime::Synchronous,
            Regime::Asynchronous(AsyncRegime {
                scheduler: SchedulerKind::Fifo,
                delay: 1,
                seed: 0,
            }),
            Regime::Asynchronous(AsyncRegime {
                scheduler: SchedulerKind::DelayMax,
                delay: 9,
                seed: u64::MAX - 5,
            }),
            Regime::PartialSync {
                gst: 17,
                pre: AdversarialSchedule::holding(&[2, 40, 63]),
                post: AsyncRegime {
                    scheduler: SchedulerKind::EdgeLag,
                    delay: 3,
                    seed: u64::MAX - 9,
                },
            },
            Regime::PartialSync {
                gst: 1,
                pre: AdversarialSchedule::empty(),
                post: AsyncRegime {
                    scheduler: SchedulerKind::Fifo,
                    delay: 1,
                    seed: 0,
                },
            },
        ];
        for regime in regimes {
            let text = regime.to_json().to_string();
            let back = Regime::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, regime, "round-trip failed for {text}");
        }
        // Bare-name and defaulted-object forms parse too.
        let defaulted = Regime::from_json(&Json::parse(r#"{"kind": "async"}"#).unwrap()).unwrap();
        assert_eq!(
            defaulted,
            Regime::Asynchronous(AsyncRegime {
                scheduler: SchedulerKind::EdgeLag,
                delay: 3,
                seed: 0,
            })
        );
        assert!(Regime::from_json(&Json::Str("warp".to_string())).is_err());
        assert!(
            Regime::from_json(&Json::parse(r#"{"kind": "async", "delay": 0}"#).unwrap()).is_err()
        );
        // The fairness bound is capped: an absurd delay must be rejected at
        // parse time, not turn into a gigabyte-scale schedule ring and an
        // effectively unbounded step loop.
        for over in [u64::from(MAX_DELAY) + 1, 4_000_000_000] {
            assert!(Regime::from_json(
                &Json::parse(&format!(r#"{{"kind": "async", "delay": {over}}}"#)).unwrap()
            )
            .is_err());
        }
    }

    #[test]
    fn partial_sync_json_validates_gst_and_hold() {
        // gst is required, must be >= 1 (0 is the async regime — the error
        // should say so) and capped like the delay bound.
        let missing = Regime::from_json(&Json::parse(r#"{"kind": "partial-sync"}"#).unwrap());
        assert!(missing.unwrap_err().message.contains("gst"));
        let zero =
            Regime::from_json(&Json::parse(r#"{"kind": "partial-sync", "gst": 0}"#).unwrap());
        assert!(zero.unwrap_err().message.contains("asynchronous"));
        let over = Regime::from_json(
            &Json::parse(&format!(
                r#"{{"kind": "partial-sync", "gst": {}}}"#,
                u64::from(MAX_GST) + 1
            ))
            .unwrap(),
        );
        assert!(over.is_err());
        // Hold-sets must be arrays of node ids below 64.
        let bad_hold = Regime::from_json(
            &Json::parse(r#"{"kind": "partial-sync", "gst": 3, "hold": [64]}"#).unwrap(),
        );
        assert!(bad_hold.unwrap_err().message.contains("64"));
        // Defaults mirror the async object form: edge-lag, delay 3, seed 0,
        // empty hold-set.
        let defaulted =
            Regime::from_json(&Json::parse(r#"{"kind": "psync", "gst": 5}"#).unwrap()).unwrap();
        assert_eq!(
            defaulted,
            Regime::PartialSync {
                gst: 5,
                pre: AdversarialSchedule::empty(),
                post: AsyncRegime {
                    scheduler: SchedulerKind::EdgeLag,
                    delay: 3,
                    seed: 0,
                },
            }
        );
    }
}
