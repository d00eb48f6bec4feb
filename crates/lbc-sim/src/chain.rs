//! The two step loops: one long-lived [`Network`] deciding one or many
//! consecutive consensus instances.
//!
//! A repeated-consensus service decides continuously: [`Network::run_chain`]
//! re-arms the same network with a fresh protocol set per instance while
//! keeping the [`lbc_model::SharedPathArena`] and the
//! [`lbc_model::SharedFloodLedger`]'s pair-path memos warm across instances.
//! A one-shot [`Network::run_under`] is a chain of one.
//!
//! There are two loops, one per delivery discipline: the lockstep loop of
//! the synchronous regime and the event-scheduled loop of the asynchronous
//! and partial-synchrony regimes. The lockstep loop stays separate although
//! an event loop with a lag-1 FIFO schedule delivers the same messages.
//! Traced benchmark runs (`benchmark/README.md`; two per workload on a
//! 2-vCPU Xeon) measure 3.6–4.8 ns of simulator time per delivery in the
//! lockstep loop (dense-sync, 54.5 M deliveries per repetition) against
//! 12.8–13.2 ns in the event loop (async-circulant), which reads each
//! edge's lag from a table filled once per chain. Run on the event loop
//! under a lag-1 `fifo` schedule, dense-sync took 18 % longer end to end
//! (ROADMAP item 1, measured before the lag table).
//!
//! Both loops emit the step events of an attached observer —
//! `StepStart`, `Transmission` (stamped with the step that produced it),
//! `Scheduled`/`Held`, `BurstRelease`, `Delivery` and `RunInterrupted` —
//! and keep one [`Trace`] per instance. Step numbers are instance-local in
//! the lockstep loop and on the chain's one scheduler clock in the event
//! loop; the two agree for a chain of one.
//!
//! # Transmission numbers and the in-flight window
//!
//! A transmission lives once in a buffer, and inboxes, pending events and
//! observer events name it by number. The lockstep loop refills its buffer
//! every round and numbers the round's transmissions from 0. The event
//! loop numbers transmissions 0, 1, 2, … across the whole chain and keeps
//! them in a `Window` that holds only those that may still have a
//! delivery pending: at a step boundary, once the window has doubled since
//! its last cut (and holds at least 4,096 transmissions), it drops every
//! transmission below the lowest one a due or held event still names. A
//! fairly scheduled transmission is delivered within `D` steps of its
//! send, so the window spans about the last `D` steps' traffic; held
//! pre-GST events pin it until GST.
//! Numbers never change, so [`crate::Inbox::iter_indexed`], the ledger's
//! slot tables and `lbc trace` see the numbers a chain-long buffer would
//! give, while memory stays O(transmissions in flight) however long the
//! chain runs. [`ChainStats::max_in_flight`] records the widest window.
//!
//! # Isolation and overlap
//!
//! Instance `k + 1` starts while instance `k`'s flood tail is still in
//! flight. Two mechanisms keep the instances from contaminating each other:
//!
//! * **Ledger sessions** — [`lbc_model::FloodLedger::begin_session`] offsets
//!   every `(tag, epoch)` channel name the new instance derives past the
//!   previous instance's epochs, so each instance records into its own
//!   channels and the two-epoch retirement rule reclaims channel storage one
//!   whole instance behind the front (≤ 2 live / ≤ 3 allocated per tag).
//! * **Routing by instance** — every buffered transmission is stamped with
//!   the instance that emitted it, and deliveries are routed to that
//!   instance's node set only. The previous instance's nodes survive as a
//!   *retiring* set exactly until their in-flight events quiesce; a stale
//!   message can therefore never reach the new instance's protocol state.
//!
//! Per-edge FIFO clamps carry across the boundary (the physical channel is
//! shared), which preserves the flood fabric's same-first-message invariant
//! and keeps every delivery within the regime's fairness bound `D` of its
//! transmission — the chained schedule is a conforming schedule, so
//! schedule-invariant protocols decide exactly as they would one-shot.

use lbc_model::{AdversarialSchedule, NodeId, Regime, Round, Value};
use lbc_telemetry::{Event, MessageView, Moment};

use crate::adversary::Adversary;
use crate::network::Network;
use crate::protocol::{Delivery, Outgoing, Protocol};
use crate::trace::{RoundStats, Trace};

/// Per-instance outcome of a chained run.
///
/// `steps` is the instance-local step count until termination (or budget
/// exhaustion); `transmissions`/`deliveries` are attributed to the instance
/// that *emitted* them, so a flood tail draining during the next instance
/// still counts against its own instance.
#[derive(Debug, Clone, Default)]
pub struct InstanceReport {
    /// Decided output per node at instance end (`None` = undecided).
    pub outputs: Vec<Option<Value>>,
    /// Whether every non-faulty node terminated within the step budget.
    pub all_non_faulty_terminated: bool,
    /// Instance-local steps until termination or budget.
    pub steps: usize,
    /// Transmissions emitted by this instance (including its drain tail).
    pub transmissions: usize,
    /// Deliveries of this instance's transmissions.
    pub deliveries: usize,
    /// The instance's own steps, counted as [`Trace`] documents: no drain
    /// tail, and adversary interference only under an attached observer.
    /// [`Network::run_under`] returns this trace of its single instance.
    pub trace: Trace,
}

/// Whole-chain accounting: resource high-water marks proving that channel
/// retirement and the retiring-set drain actually reclaim state, plus the
/// amortized-arena evidence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainStats {
    /// Most ledger channels concurrently live at any instance boundary.
    pub max_live_channels: usize,
    /// Most channel slots ever allocated (live + recycled).
    pub max_allocated_channels: usize,
    /// Largest per-tag live channel count (the two-epoch bound holds iff
    /// this stays ≤ 2).
    pub max_live_per_tag: usize,
    /// Most distinct tags with a live channel.
    pub live_tags: usize,
    /// Arena entries at chain end — flat across instances when path plans
    /// amortize (the same graph re-interns to the same entries).
    pub arena_paths: usize,
    /// Steps in which a retiring instance's tail was still draining.
    pub drained_steps: usize,
    /// Most transmissions the loop held at once: the event loop's window
    /// at its widest, or the lockstep loop's current and draining rounds
    /// together. Flat in the chain's length when delivered transmissions
    /// are dropped.
    pub max_in_flight: usize,
}

/// The previous instance's node set draining its synchronous tail.
struct SyncRetiring<P: Protocol> {
    nodes: Vec<P>,
    pending: Vec<Vec<Outgoing<P::Message>>>,
    round: u64,
    report: usize,
}

/// The previous instance's node set draining its event-scheduled tail.
struct AsyncRetiring<P: Protocol> {
    nodes: Vec<P>,
    /// Global step the instance started at (its local step origin).
    start: u64,
    report: usize,
}

/// The window is not cut while it holds fewer transmissions than this, so
/// a short run never scans its pending events.
const CUT_FLOOR: usize = 4096;

/// The event loop's transmissions that may still have a delivery pending: a
/// window over the chain's transmissions that drops its delivered prefix.
///
/// Transmissions are numbered 0, 1, 2, … in the order the loop accepts
/// them, across the whole chain, and a transmission keeps its number from
/// send to last delivery: `buffer[i]` and `owner[i]` belong to transmission
/// `first + i`. Pending events name transmissions by window index, which
/// [`Window::cut`] shifts along with the buffer; observer events and
/// [`crate::Inbox::iter_indexed`] see the number.
pub(crate) struct Window<M> {
    buffer: Vec<Delivery<M>>,
    /// Emitting instance per buffered transmission: deliveries route to
    /// that instance's node set only.
    owner: Vec<u32>,
    /// The number of the transmission in `buffer[0]`.
    first: u64,
    /// The window is cut again once it holds this many transmissions:
    /// twice what the last cut kept, and at least [`CUT_FLOOR`].
    next_cut: usize,
    /// Most transmissions held at any cut check.
    peak: usize,
}

impl<M> Window<M> {
    fn new() -> Self {
        Window {
            buffer: Vec::new(),
            owner: Vec::new(),
            first: 0,
            next_cut: CUT_FLOOR,
            peak: 0,
        }
    }

    /// Appends a transmission emitted by instance `owner` and returns its
    /// window index.
    ///
    /// # Panics
    ///
    /// Panics if the window already holds `u32::MAX` transmissions.
    pub(crate) fn push(&mut self, delivery: Delivery<M>, owner: u32) -> u32 {
        let index = u32::try_from(self.buffer.len()).expect("transmission window overflow");
        self.buffer.push(delivery);
        self.owner.push(owner);
        index
    }

    /// The transmission at window index `index`.
    pub(crate) fn get(&self, index: u32) -> &Delivery<M> {
        &self.buffer[index as usize]
    }

    /// The chain-wide number of the transmission at window index `index`.
    pub(crate) fn number(&self, index: u32) -> u64 {
        self.first + u64::from(index)
    }

    /// The buffered transmissions and the number of the first, as
    /// [`Network::collect_outgoing`] reads them.
    fn view(&self) -> (&[Delivery<M>], u64) {
        (&self.buffer, self.first)
    }

    /// At a step boundary, once the window has doubled since the last cut:
    /// drops every transmission below the lowest index a pending event
    /// (`due` or `held`) still names and shifts those events down by the
    /// same amount. Each cut scans the pending events once and moves what
    /// it keeps; the doubling rule makes both amortized O(1) per scheduled
    /// event.
    fn cut(&mut self, due: &mut [Vec<(u32, u32)>], held: &mut [(u32, u32)]) {
        let len = self.buffer.len();
        self.peak = self.peak.max(len);
        if len < self.next_cut {
            return;
        }
        let lowest = due
            .iter()
            .flatten()
            .chain(held.iter())
            .map(|&(index, _)| index as usize)
            .min()
            .unwrap_or(len);
        if lowest > 0 {
            self.buffer.drain(..lowest);
            self.owner.drain(..lowest);
            self.first += lowest as u64;
            let shift = lowest as u32;
            for (index, _) in due.iter_mut().flatten().chain(held.iter_mut()) {
                *index -= shift;
            }
        }
        self.next_cut = (2 * self.buffer.len()).max(CUT_FLOOR);
    }

    /// Most transmissions the window has held at once.
    fn peak(&self) -> usize {
        self.peak.max(self.buffer.len())
    }
}

/// Event-loop state of a chained asynchronous / partial-synchrony run,
/// persisting across instance boundaries.
struct AsyncChainState<P: Protocol> {
    /// `lags[from * n + to]`: the scheduler lag of every directed edge,
    /// drawn once per chain from [`lbc_model::AsyncRegime::lag`] and
    /// clamped to `1..=D`. A lag depends only on the edge, so no event
    /// draws one.
    lags: Vec<u64>,
    pre: Option<AdversarialSchedule>,
    /// The transmissions still in flight, stamped with their emitting
    /// instance. A transmission leaves the window at the first cut after
    /// its last delivery.
    window: Window<P::Message>,
    /// `due[step % (D+1)]` = `(window index, receiver)` events due at
    /// `step`, filled at enqueue time. A lag is at most `D`, so a ring of
    /// `D+1` step buckets always suffices; held pre-GST events wait in
    /// `held` instead, so a large GST does not demand a large ring.
    due: Vec<Vec<(u32, u32)>>,
    /// Per-edge FIFO clamp: the last step any delivery was scheduled for
    /// on the `(sender, receiver)` edge.
    edge_last: Vec<u64>,
    /// Held pre-GST events of the *current* instance, in transmission
    /// order. They pin the window until they are released.
    held: Vec<(u32, u32)>,
    slots_cur: Vec<Vec<u32>>,
    slots_ret: Vec<Vec<u32>>,
    retiring: Option<AsyncRetiring<P>>,
    /// The current instance's transmissions and interference since its last
    /// step: its trace counts them at the next step.
    carried: RoundStats,
    /// Next global step to execute.
    global: u64,
    /// Global step the current instance started at.
    cur_start: u64,
    /// Report index (= instance index) of the current instance.
    cur_report: usize,
    /// The current instance's absolute GST step.
    gst_abs: u64,
}

impl<P: Protocol> Network<P> {
    /// Runs `instances` consecutive protocol instances over this one
    /// long-lived network under `regime`, re-arming via `next` — called with
    /// the instance index (from 1; instance 0 runs the constructor-supplied
    /// node set) and returning one fresh protocol per node.
    ///
    /// Each instance gets at most `max_steps_per_instance` steps. Instance
    /// `k + 1` starts while instance `k`'s flood tail drains (ledger
    /// sessions and routing by instance keep the two apart); the arena and
    /// the ledger's pair-path memos stay warm across instances. An attached
    /// observer receives every step's events; the run-level `RunStart` and
    /// `RunEnd` events are [`Network::run_under`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `next` returns the wrong number of protocol instances.
    pub fn run_chain<A, F>(
        &mut self,
        regime: &Regime,
        adversary: &mut A,
        max_steps_per_instance: usize,
        instances: usize,
        next: F,
    ) -> (Vec<InstanceReport>, ChainStats)
    where
        A: Adversary<P::Message>,
        F: FnMut(u64) -> Vec<P>,
    {
        match regime {
            Regime::Synchronous => {
                self.run_chain_sync(adversary, max_steps_per_instance, instances, next)
            }
            Regime::Asynchronous(_) | Regime::PartialSync { .. } => {
                self.run_chain_async(regime, adversary, max_steps_per_instance, instances, next)
            }
        }
    }

    /// Closes the current instance's report and folds the ledger's and
    /// arena's occupancy into the chain high-water marks.
    fn finish_instance(&self, report: &mut InstanceReport, trace: Trace, stats: &mut ChainStats) {
        report.steps = trace.rounds();
        report.trace = trace;
        report.outputs = self.nodes.iter().map(Protocol::output).collect();
        report.all_non_faulty_terminated = self.all_non_faulty_terminated();
        let ledger = self.ledger.borrow();
        stats.max_live_channels = stats.max_live_channels.max(ledger.live_channels());
        stats.max_allocated_channels = stats
            .max_allocated_channels
            .max(ledger.allocated_channels());
        stats.max_live_per_tag = stats
            .max_live_per_tag
            .max(ledger.max_live_channels_per_tag());
        stats.live_tags = stats.live_tags.max(ledger.live_tag_count());
        stats.arena_paths = self.arena.borrow().entry_count();
    }

    /// [`Network::collect_outgoing`] for a retiring node set: the two sets
    /// trade places for the call. The retiring instance's trace is closed,
    /// so its interference is not counted.
    fn collect_retiring<A>(
        &mut self,
        nodes: &mut Vec<P>,
        regime: &Regime,
        adversary: &mut A,
        round: Round,
        (buffer, first): (&[Delivery<P::Message>], u64),
        slots: &[Vec<u32>],
    ) -> Vec<Vec<Outgoing<P::Message>>>
    where
        A: Adversary<P::Message>,
    {
        std::mem::swap(&mut self.nodes, nodes);
        let outgoing = self.collect_outgoing(
            regime,
            adversary,
            Some(round),
            (buffer, first),
            slots,
            &mut RoundStats::default(),
        );
        std::mem::swap(&mut self.nodes, nodes);
        outgoing
    }

    /// One lockstep round of the retiring set's tail: deliver its pending
    /// transmissions to its own nodes, collect their forwards, and drop the
    /// set once it goes quiet. Returns how many transmissions the round
    /// buffered (0 without a retiring set).
    fn sync_drain_round<A>(
        &mut self,
        retiring: &mut Option<SyncRetiring<P>>,
        adversary: &mut A,
        buffer: &mut Vec<Delivery<P::Message>>,
        slots: &mut [Vec<u32>],
        reports: &mut [InstanceReport],
        stats: &mut ChainStats,
    ) -> usize
    where
        A: Adversary<P::Message>,
    {
        let Some(r) = retiring.as_mut() else { return 0 };
        stats.drained_steps += 1;
        let round = Round::new(r.round);
        let delivered = self.deliver(std::mem::take(&mut r.pending), buffer, slots, round);
        stats.max_in_flight = stats.max_in_flight.max(buffer.len());
        let regime = Regime::Synchronous;
        let pending =
            self.collect_retiring(&mut r.nodes, &regime, adversary, round, (buffer, 0), slots);
        r.round += 1;
        reports[r.report].transmissions += delivered.transmissions;
        reports[r.report].deliveries += delivered.deliveries;
        if pending.iter().all(Vec::is_empty) {
            *retiring = None;
        } else {
            r.pending = pending;
        }
        buffer.len()
    }

    /// The lockstep loop: round `r`'s transmissions reach every receiver at
    /// round `r + 1`. A finishing instance's undelivered final round is
    /// handed to a retiring set that drains (on its own buffer, to its own
    /// nodes) alongside the next instance's rounds.
    fn run_chain_sync<A, F>(
        &mut self,
        adversary: &mut A,
        max_rounds: usize,
        instances: usize,
        mut next: F,
    ) -> (Vec<InstanceReport>, ChainStats)
    where
        A: Adversary<P::Message>,
        F: FnMut(u64) -> Vec<P>,
    {
        let regime = Regime::Synchronous;
        let n = self.nodes.len();
        let mut reports: Vec<InstanceReport> = Vec::with_capacity(instances);
        let mut stats = ChainStats::default();
        // Zero-clone delivery state, allocated once and reused across
        // rounds: a round's transmissions live exactly once in `buffer`, and
        // each node's inbox is a list of `u32` slots into it.
        let mut buffer: Vec<Delivery<P::Message>> = Vec::new();
        let mut slots: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut ret_buffer: Vec<Delivery<P::Message>> = Vec::new();
        let mut ret_slots: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut retiring: Option<SyncRetiring<P>> = None;
        // The finishing instance's undelivered final-round transmissions.
        let mut tail: Vec<Vec<Outgoing<P::Message>>> = Vec::new();
        let mut tail_round = 0u64;
        let mut cancelled = false;

        for instance in 0..instances {
            if instance > 0 {
                // At most two node sets are ever live: flush any tail from
                // two instances back before re-arming. The cap is a
                // backstop; flood tails quiesce in O(diameter) rounds.
                let mut guard = 0usize;
                while retiring.is_some() && guard < max_rounds {
                    self.sync_drain_round(
                        &mut retiring,
                        adversary,
                        &mut ret_buffer,
                        &mut ret_slots,
                        &mut reports,
                        &mut stats,
                    );
                    guard += 1;
                }
                retiring = None;
                self.ledger.begin_session();
                let fresh = next(instance as u64);
                assert_eq!(
                    fresh.len(),
                    n,
                    "chained instance needs one protocol per node"
                );
                let old = std::mem::replace(&mut self.nodes, fresh);
                if tail.iter().any(|p| !p.is_empty()) {
                    retiring = Some(SyncRetiring {
                        nodes: old,
                        pending: std::mem::take(&mut tail),
                        round: tail_round,
                        report: instance - 1,
                    });
                } else {
                    tail.clear();
                }
            }
            reports.push(InstanceReport::default());
            let mut trace = Trace::new();
            // Interference the adversary applies at collection time is
            // counted in the round that delivers the affected transmissions.
            let mut interference = RoundStats::default();
            let mut pending = self.collect_outgoing(
                &regime,
                adversary,
                None,
                (&buffer, 0),
                &slots,
                &mut interference,
            );
            let mut local = 0u64;
            while (local as usize) < max_rounds {
                if self.all_non_faulty_terminated() {
                    break;
                }
                if self.cancel_requested() {
                    self.observer.emit(|| Event::RunInterrupted { step: local });
                    cancelled = true;
                    break;
                }
                self.observer.emit(|| Event::StepStart { step: local });
                let draining = self.sync_drain_round(
                    &mut retiring,
                    adversary,
                    &mut ret_buffer,
                    &mut ret_slots,
                    &mut reports,
                    &mut stats,
                );
                let round = Round::new(local);
                let mut delivered = self.deliver(pending, &mut buffer, &mut slots, round);
                stats.max_in_flight = stats.max_in_flight.max(draining + buffer.len());
                reports[instance].transmissions += delivered.transmissions;
                reports[instance].deliveries += delivered.deliveries;
                delivered.add(&std::mem::take(&mut interference));
                trace.push_round(&delivered);
                pending = self.collect_outgoing(
                    &regime,
                    adversary,
                    Some(round),
                    (&buffer, 0),
                    &slots,
                    &mut interference,
                );
                local += 1;
            }
            self.finish_instance(&mut reports[instance], trace, &mut stats);
            if cancelled {
                break;
            }
            tail = pending;
            tail_round = local;
        }
        // Flush the second-to-last instance's tail so its accounting closes;
        // the final instance's own tail is never delivered: no instance
        // follows it.
        let mut guard = 0usize;
        while retiring.is_some() && !cancelled && guard < max_rounds {
            self.sync_drain_round(
                &mut retiring,
                adversary,
                &mut ret_buffer,
                &mut ret_slots,
                &mut reports,
                &mut stats,
            );
            guard += 1;
        }
        (reports, stats)
    }

    /// One step of the event loop: release the due bucket (plus the current
    /// instance's GST burst when due), route deliveries to the owning
    /// instance's node set, collect + enqueue the retiring set's forwards
    /// and then the current set's, and retire the old set once its events
    /// quiesce.
    ///
    /// Returns the step as the current instance's trace counts it: what the
    /// step released to the instance, plus the transmissions and
    /// interference carried from its previous collection.
    fn async_chain_step<A>(
        &mut self,
        st: &mut AsyncChainState<P>,
        regime: &Regime,
        adversary: &mut A,
        reports: &mut [InstanceReport],
        stats: &mut ChainStats,
    ) -> RoundStats
    where
        A: Adversary<P::Message>,
    {
        let step = st.global;
        self.observer.emit(|| Event::StepStart { step });
        let horizon = st.due.len() as u64;
        for inbox in st.slots_cur.iter_mut() {
            inbox.clear();
        }
        for inbox in st.slots_ret.iter_mut() {
            inbox.clear();
        }
        let mut current = std::mem::take(&mut st.carried);
        let mut released = std::mem::take(&mut st.due[(step % horizon) as usize]);
        if st.pre.is_some() && step == st.gst_abs && !st.held.is_empty() {
            // The GST burst: every withheld pre-GST event lands now, merged
            // into transmission order with the step's fair deliveries.
            let count = st.held.len();
            current.burst_deliveries = count;
            self.observer.emit(|| Event::BurstRelease { step, count });
            released.append(&mut st.held);
        }
        // Per receiver, deliveries arrive in global transmission order.
        // Without a retiring set every pending event is the current
        // instance's, so routing skips the owner lookup.
        released.sort_unstable();
        let routed = st.retiring.is_some();
        for (index, receiver) in released {
            let inboxes = if !routed || st.window.owner[index as usize] as usize == st.cur_report {
                current.deliveries += 1;
                &mut st.slots_cur
            } else if let Some(r) = st.retiring.as_ref() {
                reports[r.report].deliveries += 1;
                &mut st.slots_ret
            } else {
                // Events of a hard-dropped instance (backstop only).
                continue;
            };
            inboxes[receiver as usize].push(index);
            self.observer.emit(|| Event::Delivery {
                step,
                to: NodeId::new(receiver as usize),
                from: st.window.get(index).from,
                slot: st.window.number(index),
                meta: st.window.get(index).message.meta(&self.arena),
            });
        }
        reports[st.cur_report].deliveries += current.deliveries;
        if let Some(r) = st.retiring.as_mut() {
            stats.drained_steps += 1;
            let round = Round::new(step - r.start);
            let outgoing = self.collect_retiring(
                &mut r.nodes,
                regime,
                adversary,
                round,
                st.window.view(),
                &st.slots_ret,
            );
            let mut rs = RoundStats::default();
            // A retiring tail is past its instance's hold window: fair
            // scheduling only.
            self.enqueue_async(
                &st.lags,
                None,
                outgoing,
                step + 1,
                Moment::Step(step),
                &mut st.window,
                r.report as u32,
                &mut st.due,
                &mut st.edge_last,
                &mut st.held,
                &mut rs,
            );
            reports[r.report].transmissions += rs.transmissions;
        }
        if let Some(r) = st.retiring.as_ref() {
            let report = r.report as u32;
            let alive = st
                .due
                .iter()
                .flatten()
                .any(|(index, _)| st.window.owner[*index as usize] == report);
            if !alive {
                st.retiring = None;
            }
        }
        let round = Round::new(step - st.cur_start);
        let outgoing = self.collect_outgoing(
            regime,
            adversary,
            Some(round),
            st.window.view(),
            &st.slots_cur,
            &mut st.carried,
        );
        let psync = st.pre.map(|p| (st.gst_abs, p));
        self.enqueue_async(
            &st.lags,
            psync,
            outgoing,
            step + 1,
            Moment::Step(step),
            &mut st.window,
            st.cur_report as u32,
            &mut st.due,
            &mut st.edge_last,
            &mut st.held,
            &mut st.carried,
        );
        reports[st.cur_report].transmissions += st.carried.transmissions;
        st.window.cut(&mut st.due, &mut st.held);
        st.global += 1;
        current
    }

    /// The event-scheduled loop of the asynchronous and partial-synchrony
    /// regimes.
    ///
    /// Transmissions are appended once to the in-flight [`Window`],
    /// stamped with their emitting instance; each `(transmission,
    /// receiver)` pair becomes a delivery event scheduled `lag ∈ 1..=D`
    /// steps ahead by the regime's deterministic scheduler, clamped so
    /// per-edge FIFO order holds. Every step delivers the due events (in
    /// global transmission order per receiver) and runs every node's
    /// `on_round` hook, empty inbox or not. One global step counter runs
    /// through the whole chain, and the FIFO clamps carry across instance
    /// boundaries. After each step the window may cut its delivered
    /// prefix ([`Window::cut`]).
    ///
    /// Under partial synchrony a transmission whose earliest landing step
    /// is before GST and whose *sender* is in the hold-set is withheld from
    /// the ring and burst-released at GST (see [`Network::enqueue_async`]).
    /// GST is instance-relative: each instance's hold window covers its own
    /// first `gst` steps and bursts exactly as a one-shot run's would.
    fn run_chain_async<A, F>(
        &mut self,
        regime: &Regime,
        adversary: &mut A,
        max_steps: usize,
        instances: usize,
        mut next: F,
    ) -> (Vec<InstanceReport>, ChainStats)
    where
        A: Adversary<P::Message>,
        F: FnMut(u64) -> Vec<P>,
    {
        let (config, gst, pre) = match regime {
            Regime::Asynchronous(config) => (*config, 0u64, None),
            Regime::PartialSync { gst, pre, post } => (*post, u64::from(*gst), Some(*pre)),
            Regime::Synchronous => unreachable!("sync chains run in run_chain_sync"),
        };
        let n = self.nodes.len();
        let horizon = config.delay as usize + 1;
        let mut reports: Vec<InstanceReport> = Vec::with_capacity(instances);
        let mut stats = ChainStats::default();
        let lags = (0..n * n)
            .map(|edge| {
                let lag = config.lag(edge / n, edge % n, n);
                lag.clamp(1, u64::from(config.delay))
            })
            .collect();
        let mut st = AsyncChainState::<P> {
            lags,
            pre,
            window: Window::new(),
            due: vec![Vec::new(); horizon],
            edge_last: vec![0; n * n],
            held: Vec::new(),
            slots_cur: vec![Vec::new(); n],
            slots_ret: vec![Vec::new(); n],
            retiring: None,
            carried: RoundStats::default(),
            global: 0,
            cur_start: 0,
            cur_report: 0,
            gst_abs: gst,
        };
        let mut cancelled = false;

        for instance in 0..instances {
            if instance > 0 {
                // Flush the two-instances-back tail entirely before
                // re-arming; the cap is a backstop.
                let mut guard = 0usize;
                while st.retiring.is_some() && guard < max_steps {
                    self.async_chain_step(&mut st, regime, adversary, &mut reports, &mut stats);
                    guard += 1;
                }
                if let Some(r) = st.retiring.take() {
                    let stale = r.report as u32;
                    for bucket in st.due.iter_mut() {
                        bucket.retain(|(index, _)| st.window.owner[*index as usize] != stale);
                    }
                }
                // An instance that ended before its GST (possible only for
                // protocols that terminate early) bursts its held events at
                // the handover step; their edges' clamps held no other
                // traffic (all of a held sender's pre-GST events are held),
                // so resetting them to the handover step preserves FIFO and
                // restores the fairness bound for the next instance.
                if !st.held.is_empty() {
                    let bucket = (st.global % horizon as u64) as usize;
                    for (index, to) in std::mem::take(&mut st.held) {
                        let from = st.window.get(index).from.index();
                        st.edge_last[from * n + to as usize] = st.global;
                        st.due[bucket].push((index, to));
                    }
                }
                self.ledger.begin_session();
                let fresh = next(instance as u64);
                assert_eq!(
                    fresh.len(),
                    n,
                    "chained instance needs one protocol per node"
                );
                let old = std::mem::replace(&mut self.nodes, fresh);
                let previous = (instance - 1) as u32;
                let has_tail = st
                    .due
                    .iter()
                    .flatten()
                    .any(|(index, _)| st.window.owner[*index as usize] == previous);
                if has_tail {
                    st.retiring = Some(AsyncRetiring {
                        nodes: old,
                        start: st.cur_start,
                        report: instance - 1,
                    });
                }
                st.cur_start = st.global;
                st.cur_report = instance;
                st.gst_abs = st.global + gst;
            }
            reports.push(InstanceReport::default());
            let mut trace = Trace::new();
            for inbox in st.slots_cur.iter_mut() {
                inbox.clear();
            }
            st.carried = RoundStats::default();
            let pending = self.collect_outgoing(
                regime,
                adversary,
                None,
                st.window.view(),
                &st.slots_cur,
                &mut st.carried,
            );
            let psync = st.pre.map(|p| (st.gst_abs, p));
            // Start transmissions behave as if emitted one step before the
            // instance's first executed step: with the minimum lag of 1
            // they land on that step, exactly as under the lockstep loop.
            self.enqueue_async(
                &st.lags,
                psync,
                pending,
                st.global,
                Moment::Start,
                &mut st.window,
                instance as u32,
                &mut st.due,
                &mut st.edge_last,
                &mut st.held,
                &mut st.carried,
            );
            reports[instance].transmissions += st.carried.transmissions;

            loop {
                if (st.global - st.cur_start) as usize >= max_steps {
                    break;
                }
                if self.all_non_faulty_terminated() {
                    break;
                }
                if self.cancel_requested() {
                    let step = st.global;
                    self.observer.emit(|| Event::RunInterrupted { step });
                    cancelled = true;
                    break;
                }
                let step =
                    self.async_chain_step(&mut st, regime, adversary, &mut reports, &mut stats);
                trace.push_round(&step);
            }
            self.finish_instance(&mut reports[instance], trace, &mut stats);
            if cancelled {
                break;
            }
        }
        // Close the second-to-last instance's accounting; the final
        // instance's own tail is never delivered: no instance follows it.
        let mut guard = 0usize;
        while st.retiring.is_some() && !cancelled && guard < max_steps {
            self.async_chain_step(&mut st, regime, adversary, &mut reports, &mut stats);
            guard += 1;
        }
        stats.max_in_flight = st.window.peak();
        (reports, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::honest_adversary;
    use crate::protocol::{EchoOnce, Inbox, NodeContext};
    use lbc_graph::generators;
    use lbc_model::{AsyncRegime, CommModel, NodeSet, SchedulerKind};
    use lbc_telemetry::ObserverHandle;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn echo_nodes(n: usize, flip: bool) -> Vec<EchoOnce> {
        (0..n)
            .map(|v| EchoOnce::new(Value::from((v % 2 == 0) ^ flip)))
            .collect()
    }

    fn network(n: usize) -> Network<EchoOnce> {
        Network::new(
            generators::cycle(n),
            CommModel::LocalBroadcast,
            NodeSet::new(),
            echo_nodes(n, false),
        )
    }

    #[test]
    fn sync_chain_decides_every_instance() {
        let mut net = network(5);
        let (reports, stats) =
            net.run_chain(&Regime::Synchronous, &mut honest_adversary(), 10, 4, |k| {
                echo_nodes(5, k % 2 == 1)
            });
        assert_eq!(reports.len(), 4);
        for (k, report) in reports.iter().enumerate() {
            assert!(report.all_non_faulty_terminated, "instance {k}");
            // EchoOnce decides its own input; node 0's input alternates
            // with the instance parity.
            assert_eq!(
                report.outputs[0],
                Some(Value::from(k % 2 == 0)),
                "instance {k}"
            );
            assert!(report.transmissions > 0, "instance {k} sent nothing");
        }
        assert!(stats.max_live_per_tag <= 2);
        // The lockstep loop holds one round: each instance's five start
        // broadcasts, and no tail.
        assert_eq!(stats.max_in_flight, 5);
    }

    /// `(receiver, sender, number)` for every delivery a [`Chatter`] read.
    type ReadLog = Rc<RefCell<Vec<(NodeId, NodeId, u32)>>>;

    /// Broadcasts its input at start and after each of its first `last`
    /// rounds, deciding it after the `last`-th: every instance leaves a
    /// final round undelivered, which the next instance drains. Logs what
    /// it reads through [`Inbox::iter_indexed`] into `read`, which every
    /// instance of a chain shares.
    #[derive(Debug)]
    struct Chatter {
        input: Value,
        last: u64,
        rounds: u64,
        read: ReadLog,
    }

    impl Chatter {
        /// One node per vertex of C5, inputs alternating (flipped on
        /// `flip`).
        fn c5(last: u64, flip: bool, read: &ReadLog) -> Vec<Chatter> {
            (0..5)
                .map(|v| Chatter {
                    input: Value::from((v % 2 == 0) ^ flip),
                    last,
                    rounds: 0,
                    read: Rc::clone(read),
                })
                .collect()
        }
    }

    impl Protocol for Chatter {
        type Message = Value;

        fn on_start(&mut self, _ctx: &NodeContext<'_>) -> Vec<Outgoing<Value>> {
            vec![Outgoing::Broadcast(self.input)]
        }

        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            _round: Round,
            inbox: Inbox<'_, Value>,
        ) -> Vec<Outgoing<Value>> {
            self.read.borrow_mut().extend(
                inbox
                    .iter_indexed()
                    .map(|(number, delivery)| (ctx.id, delivery.from, number)),
            );
            self.rounds += 1;
            if self.rounds <= self.last {
                vec![Outgoing::Broadcast(self.input)]
            } else {
                Vec::new()
            }
        }

        fn output(&self) -> Option<Value> {
            (self.rounds >= self.last).then_some(self.input)
        }
    }

    #[test]
    fn observed_sync_chain_stamps_transmissions_with_the_round_that_produced_them() {
        let read = ReadLog::default();
        let (observer, recorder) = ObserverHandle::recorder();
        let mut net = Network::new(
            generators::cycle(5),
            CommModel::LocalBroadcast,
            NodeSet::new(),
            Chatter::c5(3, false, &read),
        )
        .with_observer(observer);
        let (reports, stats) =
            net.run_chain(&Regime::Synchronous, &mut honest_adversary(), 10, 2, |_| {
                Chatter::c5(3, true, &read)
            });
        assert!(reports.iter().all(|r| r.all_non_faulty_terminated));
        assert!(stats.drained_steps > 0, "the first instance's tail drains");
        // The drained tail and the second instance's start broadcasts are
        // buffered in the same round.
        assert_eq!(stats.max_in_flight, 10);
        let events = recorder.borrow().events().to_vec();
        // Each instance's five start broadcasts were produced at its start.
        let starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Transmission {
                        at: Moment::Start,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(starts, 10);
        // Every delivery follows its transmission in the stream and lands
        // on a later step than the one that produced it.
        let mut produced = std::collections::HashMap::new();
        let mut deliveries = 0;
        for event in &events {
            match event {
                Event::Transmission { at, from, slot, .. } => {
                    produced.insert((*from, *slot), *at);
                }
                Event::Delivery {
                    step, from, slot, ..
                } => {
                    let at = produced[&(*from, *slot)];
                    assert!(at < Moment::Step(*step), "{at:?} delivered at {step}");
                    deliveries += 1;
                }
                _ => {}
            }
        }
        let reported: usize = reports.iter().map(|r| r.deliveries).sum();
        assert_eq!(deliveries, reported);
    }

    #[test]
    fn async_chain_isolates_instances_across_schedulers() {
        for scheduler in SchedulerKind::all() {
            let regime = Regime::Asynchronous(AsyncRegime {
                scheduler,
                delay: 4,
                seed: 99,
            });
            let mut net = network(5);
            let (reports, _) = net.run_chain(&regime, &mut honest_adversary(), 40, 6, |k| {
                echo_nodes(5, k % 2 == 1)
            });
            for (k, report) in reports.iter().enumerate() {
                assert!(
                    report.all_non_faulty_terminated,
                    "{}: instance {k} did not terminate",
                    scheduler.name()
                );
                assert_eq!(
                    report.outputs[0],
                    Some(Value::from(k % 2 == 0)),
                    "{}",
                    scheduler.name()
                );
            }
        }
    }

    #[test]
    fn scheduled_lags_are_the_regime_lags_of_their_edges() {
        // The event loop reads each edge's lag from a table filled once per
        // chain. Every `Scheduled` event of every instance must carry the
        // lag `AsyncRegime::lag` draws for its direction of the edge.
        for scheduler in SchedulerKind::all() {
            let config = AsyncRegime {
                scheduler,
                delay: 4,
                seed: 99,
            };
            let drawn =
                |from: NodeId, to: NodeId| config.lag(from.index(), to.index(), 5).clamp(1, 4);
            let (observer, recorder) = ObserverHandle::recorder();
            let mut net = network(5).with_observer(observer);
            let regime = Regime::Asynchronous(config);
            let (reports, _) = net.run_chain(&regime, &mut honest_adversary(), 40, 3, |k| {
                echo_nodes(5, k % 2 == 1)
            });
            assert!(reports.iter().all(|r| r.all_non_faulty_terminated));
            let mut scheduled = 0;
            let mut asymmetric = false;
            for event in recorder.borrow().events() {
                let Event::Scheduled { from, to, lag, .. } = event else {
                    continue;
                };
                assert_eq!(
                    *lag,
                    drawn(*from, *to),
                    "{}: {from}->{to}",
                    scheduler.name()
                );
                asymmetric |= drawn(*from, *to) != drawn(*to, *from);
                scheduled += 1;
            }
            // Three instances of five nodes, each broadcasting once to its
            // two cycle neighbours.
            assert_eq!(scheduled, 30, "{}", scheduler.name());
            // Edge-lag draws each direction separately, so a table indexed
            // `to * n + from` would fail the check above.
            if scheduler == SchedulerKind::EdgeLag {
                assert!(asymmetric, "no edge with different lags each way");
            }
        }
    }

    #[test]
    fn window_cut_drops_only_what_no_pending_event_names() {
        let mut window = Window::new();
        for v in 0..CUT_FLOOR {
            let from = NodeId::new(v % 5);
            let index = window.push(
                Delivery {
                    from,
                    message: Value::Zero,
                },
                0,
            );
            assert_eq!(window.number(index), v as u64);
        }
        // A held event pins transmission 50, below every due event.
        let mut due = vec![vec![(4000, 1), (100, 2)], Vec::new()];
        let mut held = vec![(50, 3)];
        window.cut(&mut due, &mut held);
        assert_eq!(window.first, 50);
        assert_eq!(due, [vec![(3950, 1), (50, 2)], Vec::new()]);
        assert_eq!(held, [(0, 3)]);
        assert_eq!(window.number(0), 50);
        assert_eq!(window.get(3950).from, NodeId::new(4000 % 5));
        // Until the window doubles, a cut check changes nothing.
        held.clear();
        window.cut(&mut due, &mut held);
        assert_eq!((window.first, window.buffer.len()), (50, CUT_FLOOR - 50));
        // Once it has, the lowest pending index becomes the new start.
        while window.buffer.len() < 2 * (CUT_FLOOR - 50) {
            window.push(
                Delivery {
                    from: NodeId::new(0),
                    message: Value::One,
                },
                1,
            );
        }
        window.cut(&mut due, &mut held);
        assert_eq!(window.first, 100);
        assert_eq!(due, [vec![(3900, 1), (0, 2)], Vec::new()]);
        // With nothing pending the whole window goes.
        due.iter_mut().for_each(Vec::clear);
        while window.buffer.len() < window.next_cut {
            window.push(
                Delivery {
                    from: NodeId::new(0),
                    message: Value::One,
                },
                1,
            );
        }
        let sent = window.first + window.buffer.len() as u64;
        window.cut(&mut due, &mut held);
        assert_eq!((window.first, window.buffer.len()), (sent, 0));
        assert_eq!(window.owner.len(), 0);
        assert!(window.peak() >= 2 * (CUT_FLOOR - 50));
    }

    #[test]
    fn event_loop_holds_only_transmissions_in_flight() {
        let post = |scheduler| AsyncRegime {
            scheduler,
            delay: 3,
            seed: 11,
        };
        let mut regimes: Vec<Regime> = SchedulerKind::all()
            .into_iter()
            .map(|scheduler| Regime::Asynchronous(post(scheduler)))
            .collect();
        // Node 0's first four steps of every instance are held until the
        // instance's GST, so the window cuts with holds pending.
        regimes.push(Regime::PartialSync {
            gst: 4,
            pre: AdversarialSchedule::holding(&[0]),
            post: post(SchedulerKind::EdgeLag),
        });
        // Chatters that broadcast for six rounds send 35 transmissions an
        // instance: both chains pass the cut floor, and the longer one
        // sends many times what the window may hold.
        let bound = 2 * CUT_FLOOR;
        for regime in &regimes {
            for instances in [400, 1600] {
                let read = ReadLog::default();
                let (observer, recorder) = ObserverHandle::recorder();
                let mut net = Network::new(
                    generators::cycle(5),
                    CommModel::LocalBroadcast,
                    NodeSet::new(),
                    Chatter::c5(6, false, &read),
                )
                .with_observer(observer);
                let (reports, stats) =
                    net.run_chain(regime, &mut honest_adversary(), 40, instances, |k| {
                        Chatter::c5(6, k % 2 == 1, &read)
                    });
                let cell = format!("{regime} x{instances}");
                assert!(
                    reports.iter().all(|r| r.all_non_faulty_terminated),
                    "{cell}"
                );
                let sent: usize = reports.iter().map(|r| r.transmissions).sum();
                assert!(sent > CUT_FLOOR, "{cell}: {sent} transmissions");
                assert!(
                    stats.max_in_flight <= bound,
                    "{cell}: {} in flight",
                    stats.max_in_flight
                );
                if instances == 1600 {
                    assert!(sent > 6 * bound, "{cell}: {sent} transmissions");
                }
                // Numbers run 0, 1, 2, … across the chain, and every
                // delivery names an earlier transmission of its sender.
                let mut senders = Vec::new();
                let mut delivered = Vec::new();
                for event in recorder.borrow().events() {
                    match event {
                        Event::Transmission { from, slot, .. } => {
                            assert_eq!(*slot, senders.len() as u64, "{cell}");
                            senders.push(*from);
                        }
                        Event::Delivery { to, from, slot, .. } => {
                            assert_eq!(senders.get(*slot as usize), Some(from), "{cell}");
                            delivered.push((*to, *from, *slot as u32));
                        }
                        _ => {}
                    }
                }
                assert_eq!(senders.len(), sent, "{cell}");
                // What the protocols read is what the events name.
                let mut read = read.borrow().clone();
                read.sort_unstable();
                delivered.sort_unstable();
                assert_eq!(read, delivered, "{cell}");
            }
        }
    }

    #[test]
    fn psync_chain_is_deterministic_and_bursts_leftover_holds() {
        // EchoOnce terminates before the hold window ends, so every
        // boundary exercises the leftover-held burst path (held events
        // release at handover, edge clamps reset); the chain must stay
        // deterministic and decide every instance.
        let regime = Regime::PartialSync {
            gst: 4,
            pre: AdversarialSchedule::holding(&[0]),
            post: AsyncRegime {
                scheduler: SchedulerKind::Fifo,
                delay: 2,
                seed: 5,
            },
        };
        let run = || {
            let mut net = network(5);
            let (reports, _) = net.run_chain(&regime, &mut honest_adversary(), 40, 3, |k| {
                echo_nodes(5, k % 2 == 1)
            });
            reports
                .iter()
                .map(|r| {
                    (
                        r.outputs.clone(),
                        r.all_non_faulty_terminated,
                        r.steps,
                        r.transmissions,
                        r.deliveries,
                    )
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 3);
        for (k, (outputs, terminated, ..)) in first.iter().enumerate() {
            assert!(terminated, "instance {k}");
            assert_eq!(outputs[0], Some(Value::from(k % 2 == 0)), "instance {k}");
        }
        assert_eq!(first, run());
    }
}
