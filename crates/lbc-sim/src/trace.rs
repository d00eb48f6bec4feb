//! Execution traces: round and message accounting.

use lbc_model::json::{FromJson, Json, JsonError, ToJson};

/// One step's statistics, as the step loops hand them to [`Trace`].
///
/// Besides the message-complexity counters, a step quantifies the fault
/// pressure the adversary applied: how many honest transmissions were
/// altered, suppressed, or outnumbered by injected conflicts, and how many
/// deliveries arrived via the partial-synchrony GST burst. The adversary
/// counters are computed by diffing each faulty node's honest outgoing set
/// against what its adversary actually transmitted, so they are exact and
/// regime-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RoundStats {
    /// Transmissions (one broadcast or one unicast counts as one).
    pub(crate) transmissions: usize,
    /// Deliveries (a broadcast to `d` neighbors counts as `d`).
    pub(crate) deliveries: usize,
    /// Honest transmissions whose payload the adversary altered in place.
    pub(crate) tampered: usize,
    /// Honest transmissions the adversary suppressed.
    pub(crate) omitted: usize,
    /// Conflicting transmissions the adversary injected beyond the honest
    /// set (equivocation pressure).
    pub(crate) equivocated: usize,
    /// Deliveries that arrived via the held-then-burst release at GST.
    pub(crate) burst_deliveries: usize,
}

impl RoundStats {
    /// Adds every counter of `other` into `self`.
    pub(crate) fn add(&mut self, other: &RoundStats) {
        self.transmissions += other.transmissions;
        self.deliveries += other.deliveries;
        self.tampered += other.tampered;
        self.omitted += other.omitted;
        self.equivocated += other.equivocated;
        self.burst_deliveries += other.burst_deliveries;
    }
}

/// The whole-run totals of a [`Trace`], in one flat record.
///
/// This is the per-run statistics surface consumed by result stores (the
/// campaign report aggregates one `TraceSummary` per scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Number of rounds executed.
    pub rounds: usize,
    /// Total transmissions over the whole execution.
    pub transmissions: usize,
    /// Total deliveries over the whole execution.
    pub deliveries: usize,
    /// Total honest transmissions tampered with by the adversary.
    pub tampered: usize,
    /// Total honest transmissions omitted by the adversary.
    pub omitted: usize,
    /// Total conflicting transmissions injected beyond the honest sets.
    pub equivocated: usize,
    /// Total deliveries released by held-then-burst schedules at GST.
    pub burst_deliveries: usize,
}

impl ToJson for TraceSummary {
    fn to_json(&self) -> Json {
        Json::object([
            ("rounds", self.rounds.to_json()),
            ("transmissions", self.transmissions.to_json()),
            ("deliveries", self.deliveries.to_json()),
            ("tampered", self.tampered.to_json()),
            ("omitted", self.omitted.to_json()),
            ("equivocated", self.equivocated.to_json()),
            ("burst_deliveries", self.burst_deliveries.to_json()),
        ])
    }
}

impl FromJson for TraceSummary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("trace summary missing '{key}'"),
            })
        };
        // The adversary counters post-date the original three-field summary;
        // reports written before they existed parse with zeros so that
        // `lbc campaign diff` keeps accepting old baselines.
        let optional = |key: &str| match value.get(key) {
            Some(v) => usize::from_json(v),
            None => Ok(0),
        };
        Ok(TraceSummary {
            rounds: usize::from_json(field("rounds")?)?,
            transmissions: usize::from_json(field("transmissions")?)?,
            deliveries: usize::from_json(field("deliveries")?)?,
            tampered: optional("tampered")?,
            omitted: optional("omitted")?,
            equivocated: optional("equivocated")?,
            burst_deliveries: optional("burst_deliveries")?,
        })
    }
}

/// The accumulated trace of one simulation run, as running totals.
///
/// The experiment harness uses traces to regenerate the paper's complexity
/// claims: rounds for Theorem 5.6's `O(n)` bound, transmissions/deliveries
/// for message-complexity comparisons between Algorithm 1, Algorithm 2 and
/// the point-to-point baseline.
///
/// A step counts the deliveries released in it, plus the transmissions and
/// the adversary interference of the collection just before it (the start
/// hooks' collection, for the first step). The collection after the last
/// executed step precedes no step, so the trace does not count it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    rounds: usize,
    totals: RoundStats,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Adds one executed step.
    pub(crate) fn push_round(&mut self, stats: &RoundStats) {
        self.rounds += 1;
        self.totals.add(stats);
    }

    /// Number of rounds executed.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total transmissions over the whole execution.
    #[must_use]
    pub fn total_transmissions(&self) -> usize {
        self.totals.transmissions
    }

    /// Total deliveries over the whole execution.
    #[must_use]
    pub fn total_deliveries(&self) -> usize {
        self.totals.deliveries
    }

    /// The whole-run totals as one flat record.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        let RoundStats {
            transmissions,
            deliveries,
            tampered,
            omitted,
            equivocated,
            burst_deliveries,
        } = self.totals;
        TraceSummary {
            rounds: self.rounds,
            transmissions,
            deliveries,
            tampered,
            omitted,
            equivocated,
            burst_deliveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut trace = Trace::new();
        assert_eq!(trace.rounds(), 0);
        trace.push_round(&RoundStats {
            transmissions: 3,
            deliveries: 6,
            tampered: 1,
            ..RoundStats::default()
        });
        trace.push_round(&RoundStats {
            transmissions: 1,
            deliveries: 2,
            burst_deliveries: 2,
            ..RoundStats::default()
        });
        assert_eq!(trace.rounds(), 2);
        assert_eq!(trace.total_transmissions(), 4);
        assert_eq!(trace.total_deliveries(), 8);
        let summary = trace.summary();
        assert_eq!((summary.tampered, summary.burst_deliveries), (1, 2));
    }

    #[test]
    fn summary_roundtrips() {
        let mut trace = Trace::new();
        trace.push_round(&RoundStats {
            transmissions: 3,
            deliveries: 6,
            ..RoundStats::default()
        });
        let summary = trace.summary();
        assert_eq!(summary.rounds, 1);
        let json = summary.to_json().to_string();
        let back = TraceSummary::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, summary);
    }
}
