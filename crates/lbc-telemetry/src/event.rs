//! The deterministic structured event vocabulary of the fabric.
//!
//! Every event an execution emits is a plain value over `lbc-model`
//! vocabulary types: no timestamps, no addresses, no thread identifiers.
//! Two runs of the same scenario therefore produce *byte-identical* event
//! streams regardless of worker count or host, which is what lets the
//! telemetry layer share the repo's determinism contract.

use std::fmt::Write as _;

use lbc_model::{NodeId, PathId, SharedPathArena, Value};

/// When in an execution an event happened: before round 0 (the
/// start-of-execution `on_start` sweep) or at a concrete scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Moment {
    /// The start-of-execution hook, before any step runs.
    Start,
    /// Scheduler step / synchronous round `r`.
    Step(u64),
}

impl Moment {
    /// Renders the moment as a fixed-width-free token (`start` or `s<r>`).
    #[must_use]
    pub fn token(self) -> String {
        match self {
            Moment::Start => "start".to_string(),
            Moment::Step(r) => format!("s{r}"),
        }
    }
}

/// A protocol-agnostic view of one message's observable content.
///
/// Concrete message types implement [`MessageView`] to expose what the
/// telemetry layer can say about them: the carried value, the flood path
/// provenance (resolved against the execution's arena so the event stream is
/// self-contained), and — for report messages — which initiation the report
/// observed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MsgMeta {
    /// Short message-kind tag (`"value"`, `"flood"`, `"report"`, ...).
    pub kind: &'static str,
    /// The binary value carried, when the message carries one.
    pub value: Option<Value>,
    /// The relay path the message claims, interned id.
    pub path: Option<PathId>,
    /// The relay path resolved to node identities (`path_nodes[0]` is the
    /// origin of the flood).
    pub path_nodes: Vec<NodeId>,
    /// For report-shaped messages: the node whose initiation was observed.
    pub observed: Option<NodeId>,
}

impl MsgMeta {
    /// Meta for a message with nothing to expose.
    #[must_use]
    pub fn opaque(kind: &'static str) -> Self {
        MsgMeta {
            kind,
            ..MsgMeta::default()
        }
    }

    /// The origin of the flood this message belongs to, when the path
    /// provenance identifies one (the first hop of the claimed path).
    #[must_use]
    pub fn origin(&self) -> Option<NodeId> {
        self.path_nodes.first().copied()
    }

    /// Renders the meta as a compact deterministic token, e.g.
    /// `flood v=1 path=[v0>v1>v2]` or `report obs=v3 v=0 path=[v3]`.
    #[must_use]
    pub fn token(&self) -> String {
        let mut s = String::from(self.kind);
        if let Some(observed) = self.observed {
            let _ = write!(s, " obs={observed}");
        }
        if let Some(value) = self.value {
            let _ = write!(s, " v={}", value.as_u8());
        }
        if !self.path_nodes.is_empty() {
            s.push_str(" path=[");
            for (i, node) in self.path_nodes.iter().enumerate() {
                if i > 0 {
                    s.push('>');
                }
                let _ = write!(s, "{node}");
            }
            s.push(']');
        }
        s
    }
}

/// Message types the telemetry layer can describe.
///
/// The `arena` is the execution's shared path-interning arena; path-carrying
/// messages resolve their `PathId` against it so that the emitted
/// [`MsgMeta`] is meaningful outside the run.
pub trait MessageView {
    /// The observable content of this message.
    fn meta(&self, arena: &SharedPathArena) -> MsgMeta;
}

impl MessageView for Value {
    fn meta(&self, _arena: &SharedPathArena) -> MsgMeta {
        MsgMeta {
            kind: "value",
            value: Some(*self),
            ..MsgMeta::default()
        }
    }
}

/// One deterministic structured event emitted by an instrumented execution.
///
/// The variants cover the fabric end to end: run/step boundaries,
/// transmission and delivery with provenance, the scheduler's decisions
/// (including partial-synchrony holds and the GST burst), ledger channel
/// lifecycle, adversary interference, and node decisions with the evidence
/// that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An execution began.
    RunStart {
        /// Number of nodes.
        n: usize,
        /// Declared fault bound.
        f: usize,
        /// Human-readable regime description.
        regime: String,
    },
    /// A scheduler step (or synchronous round) began.
    StepStart {
        /// The step index.
        step: u64,
    },
    /// A node handed a transmission to the fabric.
    Transmission {
        /// When the transmission was produced.
        at: Moment,
        /// The transmitting node.
        from: NodeId,
        /// The transmission's number, shared by all its deliveries: its
        /// index in the round under the lockstep loop, and its place in the
        /// chain's transmission order under the event loop (0, 1, 2, … for
        /// the whole chain, never reused).
        slot: u64,
        /// `true` for a broadcast, `false` for an addressed unicast.
        broadcast: bool,
        /// Observable message content.
        meta: MsgMeta,
    },
    /// The fabric delivered one transmission to one receiver.
    Delivery {
        /// The step the delivery happened at.
        step: u64,
        /// The receiving node.
        to: NodeId,
        /// The transmitting neighbor.
        from: NodeId,
        /// The number of the transmission this delivery came from (see
        /// [`Event::Transmission`]).
        slot: u64,
        /// Observable message content.
        meta: MsgMeta,
    },
    /// The asynchronous scheduler chose a delivery step for an edge.
    Scheduled {
        /// The step the transmission entered the queue.
        at: Moment,
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The lag the scheduler drew (1 ≤ lag ≤ D).
        lag: u64,
        /// The step the delivery was placed at (after FIFO clamping).
        due: u64,
        /// Events pending in the scheduler (due-ring plus held set,
        /// including this one) right after this delivery was placed.
        queue_depth: usize,
    },
    /// A pre-GST schedule held a delivery back until the global
    /// stabilization time.
    Held {
        /// The step the transmission was produced at.
        at: Moment,
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The number of the transmission held back (see
        /// [`Event::Transmission`]).
        slot: u64,
    },
    /// The partial-synchrony burst at GST released all held deliveries.
    BurstRelease {
        /// The step (== GST) the burst fired at.
        step: u64,
        /// Number of held deliveries released.
        count: usize,
    },
    /// A faulty node's adversary interfered with its honest outgoing
    /// transmissions this step.
    AdversaryAction {
        /// When the interference happened.
        at: Moment,
        /// The faulty node.
        node: NodeId,
        /// Honest transmissions whose payload was altered.
        tampered: usize,
        /// Honest transmissions suppressed.
        omitted: usize,
        /// Extra conflicting transmissions injected beyond the honest set.
        equivocated: usize,
    },
    /// The flood ledger opened a `(tag, epoch)` channel.
    ChannelOpened {
        /// Channel tag (protocol-chosen stream id).
        tag: u32,
        /// Channel epoch (consensus instance).
        epoch: u32,
        /// The dense channel slot assigned.
        channel: u32,
    },
    /// The flood ledger retired a `(tag, epoch)` channel and recycled its
    /// slot.
    ChannelRetired {
        /// Channel tag.
        tag: u32,
        /// Channel epoch.
        epoch: u32,
        /// The dense channel slot recycled.
        channel: u32,
    },
    /// A node decided, with the evidence that produced the decision.
    NodeDecided {
        /// When the decision was observed.
        at: Moment,
        /// The deciding node.
        node: NodeId,
        /// The decided value.
        value: Value,
        /// The `(origin, value)` evidence set the node decided on — for the
        /// asynchronous flood protocol these are the κ-witnessed reliable
        /// receptions (f+1 internally-disjoint paths each).
        evidence: Vec<(NodeId, Value)>,
    },
    /// The execution was cancelled cooperatively (a watchdog fired) before
    /// it finished; the trace up to `step` is all the run produced.
    RunInterrupted {
        /// The step the cancellation was observed at.
        step: u64,
    },
    /// The execution finished.
    RunEnd {
        /// Rounds/steps executed.
        rounds: usize,
        /// Paths interned in the execution's arena at the end of the run.
        arena_paths: usize,
        /// Live (non-retired) ledger channels at the end of the run.
        live_channels: usize,
        /// Total ledger channel slots ever allocated.
        allocated_channels: usize,
    },
}

impl Event {
    /// Renders the event as one deterministic text line.
    ///
    /// This is the surface the `lbc trace` timeline and the determinism
    /// tests consume: identical executions produce identical line streams.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Event::RunStart { n, f, regime } => {
                format!("run-start n={n} f={f} regime={regime}")
            }
            Event::StepStart { step } => format!("step {step}"),
            Event::Transmission {
                at,
                from,
                slot,
                broadcast,
                meta,
            } => {
                let mode = if *broadcast { "bcast" } else { "ucast" };
                format!("  tx {} {from} slot={slot} {mode} {}", at.token(), meta.token())
            }
            Event::Delivery {
                step,
                to,
                from,
                slot,
                meta,
            } => format!(
                "  rx s{step} {to} <- {from} slot={slot} {}",
                meta.token()
            ),
            Event::Scheduled {
                at,
                from,
                to,
                lag,
                due,
                queue_depth,
            } => format!(
                "  sched {} {from}->{to} lag={lag} due=s{due} depth={queue_depth}",
                at.token()
            ),
            Event::Held { at, from, to, slot } => {
                format!("  hold {} {from}->{to} slot={slot}", at.token())
            }
            Event::BurstRelease { step, count } => {
                format!("  burst s{step} released={count}")
            }
            Event::AdversaryAction {
                at,
                node,
                tampered,
                omitted,
                equivocated,
            } => format!(
                "  adv {} {node} tampered={tampered} omitted={omitted} equivocated={equivocated}",
                at.token()
            ),
            Event::ChannelOpened { tag, epoch, channel } => {
                format!("  chan-open tag={tag} epoch={epoch} slot={channel}")
            }
            Event::ChannelRetired { tag, epoch, channel } => {
                format!("  chan-retire tag={tag} epoch={epoch} slot={channel}")
            }
            Event::NodeDecided {
                at,
                node,
                value,
                evidence,
            } => {
                let mut s = format!("  decide {} {node} v={}", at.token(), value.as_u8());
                if !evidence.is_empty() {
                    s.push_str(" evidence=[");
                    for (i, (origin, v)) in evidence.iter().enumerate() {
                        if i > 0 {
                            s.push(' ');
                        }
                        let _ = write!(s, "{origin}:{}", v.as_u8());
                    }
                    s.push(']');
                }
                s
            }
            Event::RunInterrupted { step } => format!("run-interrupted s{step}"),
            Event::RunEnd {
                rounds,
                arena_paths,
                live_channels,
                allocated_channels,
            } => format!(
                "run-end rounds={rounds} arena_paths={arena_paths} live_channels={live_channels} allocated_channels={allocated_channels}"
            ),
        }
    }

    /// The moment this event is anchored at, when it has one.
    #[must_use]
    pub fn moment(&self) -> Option<Moment> {
        match self {
            Event::RunStart { .. }
            | Event::RunEnd { .. }
            | Event::ChannelOpened { .. }
            | Event::ChannelRetired { .. } => None,
            Event::StepStart { step }
            | Event::Delivery { step, .. }
            | Event::BurstRelease { step, .. }
            | Event::RunInterrupted { step } => Some(Moment::Step(*step)),
            Event::Transmission { at, .. }
            | Event::Scheduled { at, .. }
            | Event::Held { at, .. }
            | Event::AdversaryAction { at, .. }
            | Event::NodeDecided { at, .. } => Some(*at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moment_tokens() {
        assert_eq!(Moment::Start.token(), "start");
        assert_eq!(Moment::Step(7).token(), "s7");
        assert!(Moment::Start < Moment::Step(0));
    }

    #[test]
    fn meta_token_includes_path_and_value() {
        let meta = MsgMeta {
            kind: "flood",
            value: Some(Value::One),
            path: Some(PathId::EMPTY),
            path_nodes: vec![NodeId::new(0), NodeId::new(2)],
            observed: None,
        };
        assert_eq!(meta.token(), "flood v=1 path=[v0>v2]");
        assert_eq!(meta.origin(), Some(NodeId::new(0)));
    }

    #[test]
    fn value_message_view() {
        let arena = SharedPathArena::new();
        let meta = Value::Zero.meta(&arena);
        assert_eq!(meta.kind, "value");
        assert_eq!(meta.value, Some(Value::Zero));
        assert_eq!(meta.origin(), None);
    }

    #[test]
    fn render_is_stable() {
        let e = Event::Delivery {
            step: 3,
            to: NodeId::new(1),
            from: NodeId::new(0),
            slot: 5,
            meta: MsgMeta::opaque("flood"),
        };
        assert_eq!(e.render(), "  rx s3 v1 <- v0 slot=5 flood");
        let d = Event::NodeDecided {
            at: Moment::Step(9),
            node: NodeId::new(4),
            value: Value::One,
            evidence: vec![(NodeId::new(0), Value::One), (NodeId::new(1), Value::Zero)],
        };
        assert_eq!(d.render(), "  decide s9 v4 v=1 evidence=[v0:1 v1:0]");
    }
}
