//! The shared flood fabric: execution-wide broadcast-once records.
//!
//! Under the local broadcast model, every neighbor of a transmitter `u`
//! receives the *same* first message for each `(u, Π)` flooding key — that is
//! rule (ii) of the paper's Algorithm 1, and it is what suppresses
//! equivocation. Before this module existed the workspace only used the
//! invariant for correctness: each of the `n` simulated nodes kept a private
//! `(sender, path) → value` map and re-derived the same facts `n` times per
//! execution. The [`FloodLedger`] records each distinct broadcast **once per
//! execution**; per-node flood state collapses to [`DenseBits`] membership
//! bitsets over arena/ledger indices plus a (normally empty) per-node
//! override map.
//!
//! **Sharing is an optimization, not a soundness assumption.** A node whose
//! own first value for a key differs from the ledger's record — possible only
//! when the communication model lets the sender deliver different copies to
//! different receivers, i.e. hybrid-model equivocators or the point-to-point
//! baseline — stores a per-node override, and queries always answer with the
//! node's own view. The ledger-backed engines are therefore observably
//! identical to per-node flood state (the reference engine keeps one map
//! per node) under *every* communication model; under local broadcast the
//! overrides are provably empty and every receiver after the first pays one
//! lookup instead of one insertion.
//!
//! # Channels
//!
//! A single execution can run several logically independent floods whose
//! rule-(ii) key spaces must not collide: Algorithm 2 floods values, reports
//! and decisions; Algorithm 1 re-floods once per candidate fault set; the
//! point-to-point baseline floods once per king-algorithm step. Each such
//! flood opens a **channel** named by a `(tag, epoch)` pair — every node of
//! the execution derives the same name at the same protocol step, so they
//! all share one channel without coordination. Channels two epochs behind
//! the newest of their tag are retired and their storage recycled.
//!
//! # Slot tables
//!
//! Every receiver of a transmission gets the same message, so what a flood
//! engine derives from the message alone is the same at every receiver:
//! rule (i)'s verdict, the interned relay id and the channel's first-value
//! record. The ledger keeps one slot table per flood kind — value floods
//! ([`FloodLedger::relay_decode_at_slot`]) and Algorithm 2's report flood
//! ([`FloodLedger::report_lookup_at_slot`]) — indexed by the transmission's
//! number (the slot `lbc_sim::Inbox::iter_indexed` yields) modulo a fixed
//! power-of-two capacity. The simulator gives a transmission one number
//! from send to last delivery, also while the event loop drops delivered
//! transmissions from its buffer, so all its receivers reach the same
//! entry. The first receiver decodes the message and fills the entry;
//! every later receiver finds it there and does only its per-node work.
//!
//! Each entry stores the full key it was filled for: the channel's serial
//! (fresh on every open and retirement of a channel slot) and the wire
//! identity. A lookup answers only on an exact match. The decode is a pure
//! function of that key and a channel's records are write-once, so a
//! verified hit is always exact. A slot number reused by a later round, two
//! slot numbers that share an entry, and the colliding positions of
//! test-local direct inboxes all simply miss and decode again. An unfilled
//! entry matches nothing.

use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use crate::fx::FxHashMap;
use crate::{NodeId, Path, PathId, Value};

/// A growable bitset over dense `usize` indices.
///
/// The flood engines key per-node rule-(ii)/(iv) membership by arena or
/// ledger indices; a bitset turns each membership test into a word read
/// where a hash map would hash and probe.
#[derive(Debug, Clone, Default)]
pub struct DenseBits {
    words: Vec<u64>,
}

impl DenseBits {
    /// Creates an empty bitset.
    #[must_use]
    pub fn new() -> Self {
        DenseBits::default()
    }

    /// Whether `index` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Inserts `index`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1 << (index % 64);
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Removes every element, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Iterates the set indices in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(word_index, word)| {
                let mut bits = *word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(word_index * 64 + bit)
                })
            })
    }

    /// Number of set bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// Handle to one flood channel of a [`FloodLedger`].
///
/// Obtained from [`FloodLedger::open`]; stable for the lifetime of the
/// channel (until it is retired two epochs later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelId(u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The shared record of one observation-flood broadcast (Algorithm 2's
/// phase-2 reports): everything about a wire message that is the same for
/// every receiver.
///
/// The first receiver to process a report pays rule-(i) validation and relay
/// interning and stores the result here; every other receiver's processing is
/// one key lookup plus per-node bit operations.
#[derive(Debug, Clone, Copy)]
pub struct ReportRecord {
    /// Whether the message passed the receiver-independent validity checks
    /// (rule (i) plus the report-shape checks). Invalid broadcasts are
    /// recorded too, so repeat receivers reject them with one lookup.
    pub valid: bool,
    /// The first value this broadcast delivered (every receiver sees the
    /// same one under local broadcast).
    pub value: Value,
    /// The report's relay path *including* the transmitter.
    pub relay: PathId,
    /// The first 64 bits of the relay path's member bitset, memoized so the
    /// per-receiver rule-(iii) check (`me ∈ relay?`) is a register test for
    /// node indices below 64 instead of an arena pointer chase.
    pub relay_members_low: u64,
    /// The node whose phase-1 transmission is being reported.
    pub observed: NodeId,
    /// The path annotation of the observed transmission.
    pub observed_path: PathId,
}

/// Rule-(ii) key of an observation-flood broadcast — the wire identity
/// `(transmitter, relay-path-so-far, observed, observed_path)` packed into
/// two words (see [`report_key`]), so the ledger's keyed map hashes two
/// machine words instead of four.
pub type ReportKey = (u64, u64);

/// Packs an observation-flood wire identity into a [`ReportKey`].
///
/// Collision-free: node indices are bounded by the graph size and path ids
/// are `u32` by construction, so each component fits its 32-bit half.
#[inline]
#[must_use]
pub fn report_key(
    from: NodeId,
    path: PathId,
    observed: NodeId,
    observed_path: PathId,
) -> ReportKey {
    debug_assert!(from.index() <= u32::MAX as usize);
    debug_assert!(observed.index() <= u32::MAX as usize);
    (
        ((from.index() as u64) << 32) | path.index() as u64,
        ((observed.index() as u64) << 32) | observed_path.index() as u64,
    )
}

/// Packs a value-flood wire identity `(sender, Π)` into one word, as
/// [`report_key`] packs a report's.
#[inline]
fn relay_key(from: NodeId, path: PathId) -> u64 {
    debug_assert!(from.index() <= u32::MAX as usize);
    ((from.index() as u64) << 32) | path.index() as u64
}

#[derive(Debug, Default)]
struct Channel {
    /// Names this incarnation of the channel slot in slot-table entries.
    /// Fresh on every open and retirement, so entries filled for an earlier
    /// flood in the same slot never match.
    serial: u32,
    /// Relay-id-indexed first values for floods whose rule-(ii) key is the
    /// relay path itself (`Π‑sender`): 0 = unrecorded, else `value + 1`.
    relay_first: Vec<u8>,
    /// Key → record index for observation floods (wider rule-(ii) keys).
    keyed: FxHashMap<ReportKey, u32>,
    /// The keyed records, densely indexed.
    records: Vec<ReportRecord>,
}

/// Entries in a slot table. A power of two, so a slot number maps to its
/// entry with one mask. The event loop's transmission numbers run on across
/// a whole chain; the mask keeps the table at this size however far they
/// go. It must hold every transmission still in flight: on the benchmark's
/// `async_circulant.json` 2^16 entries decode each transmission exactly
/// once, where 2^15 decode about one in five twice.
const SLOT_TABLE_CAPACITY: usize = 1 << 16;

/// A bounded, slot-indexed cache of receiver-independent decodes (see the
/// module docs). It grows to the next power of two above the highest entry
/// index used, at most [`SLOT_TABLE_CAPACITY`] entries. An unfilled entry is
/// `None` and matches nothing.
struct SlotTable<E> {
    entries: Vec<Option<E>>,
}

impl<E> Default for SlotTable<E> {
    fn default() -> Self {
        SlotTable {
            entries: Vec::new(),
        }
    }
}

// Manual impl: a derived one would print every entry.
impl<E> fmt::Debug for SlotTable<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotTable")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl<E: Copy> SlotTable<E> {
    #[inline]
    fn index(slot: u32) -> usize {
        slot as usize & (SLOT_TABLE_CAPACITY - 1)
    }

    /// The entry `slot` maps to, if one was filled.
    #[inline]
    fn get(&self, slot: u32) -> Option<E> {
        self.entries.get(Self::index(slot)).copied().flatten()
    }

    /// Fills the entry `slot` maps to, replacing what it held.
    #[inline]
    fn put(&mut self, slot: u32, entry: E) {
        let index = Self::index(slot);
        if index >= self.entries.len() {
            self.entries.resize((index + 1).next_power_of_two(), None);
        }
        self.entries[index] = Some(entry);
    }
}

/// A value-flood slot-table entry: the key it was filled for (channel
/// serial and packed `(sender, Π)`) and the decode, in 32 bytes.
#[derive(Debug, Clone, Copy)]
struct RelaySlot {
    key: u64,
    relay_members_low: u64,
    channel: u32,
    relay: PathId,
    origin: u32,
    valid: bool,
    first: Value,
}

/// A report-flood slot-table entry: the key it was filled for and the
/// lookup.
#[derive(Debug, Clone, Copy)]
struct ReportSlot {
    channel: u32,
    key: ReportKey,
    lookup: ReportLookup,
}

/// Whether `node` is on a relay path, given the path's first member word;
/// `fallback` answers for node indices ≥ 64.
#[inline]
fn low_word_contains(word: u64, node: NodeId, fallback: impl FnOnce() -> bool) -> bool {
    if node.index() < 64 {
        word & (1u64 << node.index()) != 0
    } else {
        fallback()
    }
}

/// The receiver-independent decode of one value-flood transmission
/// `(b, Π)` from `u`, as cached by [`FloodLedger::cache_relay_decode`]:
/// everything a receiver needs to apply rules (ii)–(iv) itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayDecode {
    /// Rule (i)'s verdict: whether `Π‑u` is a path of the graph. The other
    /// fields are meaningful only for a valid transmission.
    pub valid: bool,
    /// The relay path `Π‑u`.
    pub relay: PathId,
    /// The flood's origin, the relay path's first node.
    pub origin: NodeId,
    /// First 64 bits of the relay's member bitset (rule (iii) in a register
    /// test for node indices < 64).
    pub relay_members_low: u64,
    /// The first value the channel recorded for the relay.
    pub first: Value,
}

impl RelayDecode {
    /// The decode of a transmission rule (i) rejects.
    pub const INVALID: RelayDecode = RelayDecode {
        valid: false,
        relay: PathId::EMPTY,
        origin: NodeId::new(0),
        relay_members_low: 0,
        first: Value::Zero,
    };

    /// Whether `node` is on the relay path, via the memoized low word;
    /// `fallback` answers for node indices ≥ 64.
    #[inline]
    #[must_use]
    pub fn relay_contains(&self, node: NodeId, fallback: impl FnOnce() -> bool) -> bool {
        low_word_contains(self.relay_members_low, node, fallback)
    }
}

/// The receiver-independent facts of one observation-flood broadcast, as
/// returned by [`FloodLedger::report_lookup_at_slot`]: everything a receiver
/// needs to apply rules (ii)–(iv) without touching the record table.
#[derive(Debug, Clone, Copy)]
pub struct ReportLookup {
    /// Dense record index (for per-node bitsets and the accepted list).
    pub index: u32,
    /// Whether the broadcast passed the receiver-independent checks.
    pub valid: bool,
    /// The first value the broadcast delivered anywhere.
    pub value: Value,
    /// The relay path including the transmitter.
    pub relay: PathId,
    /// First 64 bits of the relay's member bitset (rule (iii) in a register
    /// test for node indices < 64).
    pub relay_members_low: u64,
}

impl ReportLookup {
    fn of(index: u32, record: &ReportRecord) -> Self {
        ReportLookup {
            index,
            valid: record.valid,
            value: record.value,
            relay: record.relay,
            relay_members_low: record.relay_members_low,
        }
    }

    /// Whether `node` is on the relay path, via the memoized low word;
    /// `fallback` answers for node indices ≥ 64.
    #[inline]
    #[must_use]
    pub fn relay_contains(&self, node: NodeId, fallback: impl FnOnce() -> bool) -> bool {
        low_word_contains(self.relay_members_low, node, fallback)
    }
}

/// A channel lifecycle event recorded by the ledger's (opt-in) event log.
///
/// The ledger cannot depend on the telemetry crate (the dependency points
/// the other way), so instrumented executions enable this minimal internal
/// log via [`FloodLedger::set_event_log`] and drain it with
/// [`FloodLedger::take_channel_events`], translating entries into the
/// observer's event vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelEvent {
    /// A `(tag, epoch)` channel was opened into the dense slot `channel`.
    Opened {
        /// Channel tag.
        tag: u32,
        /// Channel epoch.
        epoch: u32,
        /// Dense slot assigned.
        channel: u32,
    },
    /// A `(tag, epoch)` channel was retired and its slot recycled.
    Retired {
        /// Channel tag.
        tag: u32,
        /// Channel epoch.
        epoch: u32,
        /// Dense slot recycled.
        channel: u32,
    },
}

/// The execution-wide flood ledger: every distinct broadcast recorded once
/// per execution, on channels named by `(tag, epoch)` pairs.
///
/// Like the [`crate::PathArena`], one ledger exists per simulated execution
/// and is shared by every node through the simulator's node context
/// ([`SharedFloodLedger`]).
#[derive(Debug, Default)]
pub struct FloodLedger {
    names: FxHashMap<(u32, u32), u32>,
    channels: Vec<Channel>,
    free: Vec<u32>,
    /// Physical-epoch offset of the current instance session: every logical
    /// epoch a protocol derives is shifted by this amount before naming a
    /// channel, so consecutive consensus instances of a chained run never
    /// collide on `(tag, epoch)` names. See [`FloodLedger::begin_session`].
    session_base: u32,
    /// One past the highest physical epoch any channel was opened at.
    session_peak: u32,
    /// When `true`, channel open/retire operations append to `events`.
    /// Off by default: the uninstrumented hot path pays one branch.
    log_events: bool,
    events: Vec<ChannelEvent>,
    /// Execution-shared memo for disjoint-path plans between node pairs:
    /// deterministic pure functions of the (fixed) communication graph that
    /// every node would otherwise recompute identically. Algorithm 2's fault
    /// identification keys this by `(origin, other)`.
    pair_paths: FxHashMap<(NodeId, NodeId), Rc<Vec<Path>>>,
    /// The last channel serial handed out (see `Channel::serial`).
    serials: u32,
    /// Value-flood decodes by inbox slot (see the module docs).
    relay_slots: SlotTable<RelaySlot>,
    /// Report-flood lookups by inbox slot (see the module docs).
    report_slots: SlotTable<ReportSlot>,
}

impl FloodLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        FloodLedger::default()
    }

    /// Opens (or joins) the channel named `(tag, epoch)`. Every node of the
    /// execution that derives the same name gets the same channel. Opening
    /// epoch `e` retires **every** channel of the tag at epoch `e − 2` or
    /// older, whose storage is recycled — by then every node has moved past
    /// them (protocol phases advance together, so nodes are never more than
    /// one epoch apart). Retiring the whole stale range, not just `e − 2`
    /// exactly, keeps consumers that derive non-consecutive epochs (e.g. a
    /// step-indexed flood that skips step numbers) from leaking channels.
    pub fn open(&mut self, tag: u32, epoch: u32) -> ChannelId {
        let epoch = self.session_base + epoch;
        self.session_peak = self.session_peak.max(epoch + 1);
        if let Some(&slot) = self.names.get(&(tag, epoch)) {
            return ChannelId(slot);
        }
        if epoch >= 2 {
            self.retire_through_physical(tag, epoch - 2);
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.channels.push(Channel::default());
            u32::try_from(self.channels.len() - 1).expect("ledger overflow: > u32::MAX channels")
        });
        self.reset_channel(slot);
        self.names.insert((tag, epoch), slot);
        if self.log_events {
            self.events.push(ChannelEvent::Opened {
                tag,
                epoch,
                channel: slot,
            });
        }
        ChannelId(slot)
    }

    /// Retires every channel of `tag` whose epoch is at most `through`
    /// (a logical epoch of the current session), recycling their storage.
    /// Safe to call redundantly; called by [`FloodLedger::open`] and by the
    /// flood engines' restart paths.
    pub fn retire_through(&mut self, tag: u32, through: u32) {
        self.retire_through_physical(tag, self.session_base + through);
    }

    /// Begins the next instance session of a chained (repeated-consensus)
    /// run: every subsequent [`FloodLedger::open`] maps its logical epoch
    /// strictly above every physical epoch the previous session touched.
    ///
    /// The first open of each tag in the new session therefore retires that
    /// tag's channels from **two sessions back** (the usual two-epoch rule,
    /// applied at instance granularity), while the immediately previous
    /// session's newest channel stays live exactly long enough for its flood
    /// tail to drain into it. Returns the new session's base physical epoch.
    pub fn begin_session(&mut self) -> u32 {
        self.session_base = self.session_peak.max(self.session_base + 1);
        self.session_base
    }

    /// The largest number of concurrently live channels sharing one tag —
    /// the quantity the two-epoch retirement rule bounds (≤ 2 in steady
    /// state, whether epochs advance within one instance or across chained
    /// sessions).
    #[must_use]
    pub fn max_live_channels_per_tag(&self) -> usize {
        let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
        for (tag, _) in self.names.keys() {
            *counts.entry(*tag).or_default() += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct tags with at least one live channel.
    #[must_use]
    pub fn live_tag_count(&self) -> usize {
        let mut tags: Vec<u32> = self.names.keys().map(|(tag, _)| *tag).collect();
        tags.sort_unstable();
        tags.dedup();
        tags.len()
    }

    fn retire_through_physical(&mut self, tag: u32, through: u32) {
        let mut stale: Vec<(u32, u32)> = self
            .names
            .keys()
            .filter(|(t, e)| *t == tag && *e <= through)
            .copied()
            .collect();
        // Epoch order, not map order: slot recycling and the channel-event
        // log must not depend on hash iteration order.
        stale.sort_unstable();
        for name in stale {
            if let Some(retired) = self.names.remove(&name) {
                self.reset_channel(retired);
                self.free.push(retired);
                if self.log_events {
                    self.events.push(ChannelEvent::Retired {
                        tag: name.0,
                        epoch: name.1,
                        channel: retired,
                    });
                }
            }
        }
    }

    /// Empties a channel slot's records and gives it a fresh serial.
    fn reset_channel(&mut self, slot: u32) {
        self.serials = self
            .serials
            .checked_add(1)
            .expect("ledger overflow: > u32::MAX channel resets");
        let channel = &mut self.channels[slot as usize];
        channel.serial = self.serials;
        channel.relay_first.clear();
        channel.keyed.clear();
        channel.records.clear();
    }

    /// Enables or disables the channel-event log. Disabling also discards
    /// any pending entries.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.log_events = enabled;
        if !enabled {
            self.events.clear();
        }
    }

    /// Whether the channel-event log is enabled.
    #[must_use]
    pub fn event_log_enabled(&self) -> bool {
        self.log_events
    }

    /// Drains the pending channel-lifecycle events, in occurrence order.
    pub fn take_channel_events(&mut self) -> Vec<ChannelEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of live channels.
    #[must_use]
    pub fn live_channels(&self) -> usize {
        self.names.len()
    }

    /// Number of channel slots ever allocated (live + recycled). Bounded
    /// retirement means this stays within a small constant of the number of
    /// *concurrently* live channels, no matter how many epochs a long
    /// multi-phase execution opens.
    #[must_use]
    pub fn allocated_channels(&self) -> usize {
        self.channels.len()
    }

    /// Records the broadcast with relay path `relay` carrying `value`,
    /// unless one was recorded before; returns the **first** value recorded
    /// for the key (which is `value` itself on first record).
    ///
    /// A caller whose own observed value differs from the returned first
    /// value must keep a per-node override — see the module docs.
    pub fn record_relay(&mut self, channel: ChannelId, relay: PathId, value: Value) -> Value {
        let first = &mut self.channels[channel.0 as usize].relay_first;
        let index = relay.index();
        if index >= first.len() {
            first.resize(index + 1, 0);
        }
        match first[index] {
            0 => {
                first[index] = encode(value);
                value
            }
            recorded => decode(recorded),
        }
    }

    /// The first value recorded for the relay key, if any.
    #[must_use]
    pub fn relay_value(&self, channel: ChannelId, relay: PathId) -> Option<Value> {
        self.channels[channel.0 as usize]
            .relay_first
            .get(relay.index())
            .copied()
            .filter(|&v| v != 0)
            .map(decode)
    }

    /// Looks up the record of an observation-flood key.
    #[must_use]
    pub fn keyed_record(&self, channel: ChannelId, key: &ReportKey) -> Option<(u32, ReportRecord)> {
        let channel = &self.channels[channel.0 as usize];
        let index = *channel.keyed.get(key)?;
        Some((index, channel.records[index as usize]))
    }

    /// The decode a previous receiver cached for the value-flood
    /// transmission in `slot`, if that entry was filled for `(from, path)`
    /// on this channel; `None` on a miss (see the module docs).
    #[inline]
    #[must_use]
    pub fn relay_decode_at_slot(
        &self,
        channel: ChannelId,
        slot: u32,
        from: NodeId,
        path: PathId,
    ) -> Option<RelayDecode> {
        let serial = self.channels[channel.0 as usize].serial;
        let key = relay_key(from, path);
        let entry = self.relay_slots.get(slot)?;
        (entry.channel == serial && entry.key == key).then_some(RelayDecode {
            valid: entry.valid,
            relay: entry.relay,
            origin: NodeId::new(entry.origin as usize),
            relay_members_low: entry.relay_members_low,
            first: entry.first,
        })
    }

    /// Caches the decode of the value-flood transmission `(from, path)` in
    /// `slot` for every later receiver of the slot.
    #[inline]
    pub fn cache_relay_decode(
        &mut self,
        channel: ChannelId,
        slot: u32,
        from: NodeId,
        path: PathId,
        decode: RelayDecode,
    ) {
        debug_assert!(decode.origin.index() <= u32::MAX as usize);
        let entry = RelaySlot {
            key: relay_key(from, path),
            relay_members_low: decode.relay_members_low,
            channel: self.channels[channel.0 as usize].serial,
            relay: decode.relay,
            origin: decode.origin.index() as u32,
            valid: decode.valid,
            first: decode.first,
        };
        self.relay_slots.put(slot, entry);
    }

    /// [`FloodLedger::keyed_record`] through the report slot table: if a
    /// previous receiver already resolved `key` in `slot` on this channel,
    /// the lookup is one verified entry read. On a miss the keyed map
    /// answers and the entry is filled.
    #[must_use]
    pub fn report_lookup_at_slot(
        &mut self,
        channel: ChannelId,
        slot: u32,
        key: &ReportKey,
    ) -> Option<ReportLookup> {
        let records = &self.channels[channel.0 as usize];
        if let Some(entry) = self.report_slots.get(slot) {
            if entry.channel == records.serial && entry.key == *key {
                return Some(entry.lookup);
            }
        }
        let index = *records.keyed.get(key)?;
        Some(self.cache_slot(channel, slot, *key, index))
    }

    /// Fills the report slot table's entry for `slot` with the record at
    /// `index` and returns its lookup view. The single fill path for both
    /// the first receiver (after [`FloodLedger::insert_keyed`]) and later
    /// receivers whose entry was overwritten.
    pub fn cache_slot(
        &mut self,
        channel: ChannelId,
        slot: u32,
        key: ReportKey,
        index: u32,
    ) -> ReportLookup {
        let records = &self.channels[channel.0 as usize];
        let lookup = ReportLookup::of(index, &records.records[index as usize]);
        let entry = ReportSlot {
            channel: records.serial,
            key,
            lookup,
        };
        self.report_slots.put(slot, entry);
        lookup
    }

    /// Inserts the record for an observation-flood key (first receiver
    /// only); returns its dense index.
    ///
    /// # Panics
    ///
    /// Panics if the key was already recorded — callers must look it up
    /// first.
    pub fn insert_keyed(
        &mut self,
        channel: ChannelId,
        key: ReportKey,
        record: ReportRecord,
    ) -> u32 {
        let channel = &mut self.channels[channel.0 as usize];
        let index =
            u32::try_from(channel.records.len()).expect("ledger overflow: > u32::MAX records");
        let previous = channel.keyed.insert(key, index);
        assert!(previous.is_none(), "keyed broadcast recorded twice");
        channel.records.push(record);
        index
    }

    /// The record at a dense index previously returned by
    /// [`FloodLedger::keyed_record`] / [`FloodLedger::insert_keyed`].
    #[must_use]
    pub fn record(&self, channel: ChannelId, index: u32) -> ReportRecord {
        self.channels[channel.0 as usize].records[index as usize]
    }

    /// The memoized disjoint-path plan for a node pair, if one was computed.
    #[must_use]
    pub fn pair_paths(&self, u: NodeId, v: NodeId) -> Option<Rc<Vec<Path>>> {
        self.pair_paths.get(&(u, v)).cloned()
    }

    /// Memoizes the disjoint-path plan for a node pair. The plan must be a
    /// deterministic function of the execution's communication graph (every
    /// node computes the same one), which is what makes sharing sound.
    pub fn set_pair_paths(&mut self, u: NodeId, v: NodeId, paths: Vec<Path>) -> Rc<Vec<Path>> {
        let paths = Rc::new(paths);
        self.pair_paths.insert((u, v), Rc::clone(&paths));
        paths
    }
}

#[inline]
fn encode(value: Value) -> u8 {
    match value {
        Value::Zero => 1,
        Value::One => 2,
    }
}

#[inline]
fn decode(byte: u8) -> Value {
    match byte {
        1 => Value::Zero,
        _ => Value::One,
    }
}

/// A clonable handle to the [`FloodLedger`] shared by every node of a
/// simulated execution, threaded through the simulator's node context
/// exactly like [`crate::SharedPathArena`].
#[derive(Debug, Clone, Default)]
pub struct SharedFloodLedger {
    inner: Rc<RefCell<FloodLedger>>,
}

impl SharedFloodLedger {
    /// Creates a fresh, empty ledger.
    #[must_use]
    pub fn new() -> Self {
        SharedFloodLedger::default()
    }

    /// Immutable access to the underlying ledger.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is currently mutably borrowed.
    #[must_use]
    pub fn borrow(&self) -> Ref<'_, FloodLedger> {
        self.inner.borrow()
    }

    /// Mutable access to the underlying ledger.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is currently borrowed.
    #[must_use]
    pub fn borrow_mut(&self) -> RefMut<'_, FloodLedger> {
        self.inner.borrow_mut()
    }

    /// Opens (or joins) a named channel. See [`FloodLedger::open`].
    pub fn open(&self, tag: u32, epoch: u32) -> ChannelId {
        self.inner.borrow_mut().open(tag, epoch)
    }

    /// Retires every channel of `tag` at epoch `through` or older. See
    /// [`FloodLedger::retire_through`].
    pub fn retire_through(&self, tag: u32, through: u32) {
        self.inner.borrow_mut().retire_through(tag, through);
    }

    /// Begins the next instance session of a chained run. See
    /// [`FloodLedger::begin_session`].
    pub fn begin_session(&self) -> u32 {
        self.inner.borrow_mut().begin_session()
    }

    /// Enables or disables the channel-event log. See
    /// [`FloodLedger::set_event_log`].
    pub fn set_event_log(&self, enabled: bool) {
        self.inner.borrow_mut().set_event_log(enabled);
    }

    /// Drains pending channel-lifecycle events. See
    /// [`FloodLedger::take_channel_events`].
    pub fn take_channel_events(&self) -> Vec<ChannelEvent> {
        self.inner.borrow_mut().take_channel_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn pid(i: usize) -> PathId {
        PathId::from_index(i)
    }

    #[test]
    fn dense_bits_insert_contains_iterate() {
        let mut bits = DenseBits::new();
        assert!(bits.is_empty());
        assert!(!bits.contains(0));
        assert!(bits.insert(3));
        assert!(bits.insert(64));
        assert!(bits.insert(200));
        assert!(!bits.insert(64), "re-insert reports not-fresh");
        assert!(bits.contains(3));
        assert!(bits.contains(64));
        assert!(!bits.contains(4));
        assert_eq!(bits.ones().collect::<Vec<_>>(), vec![3, 64, 200]);
        assert_eq!(bits.len(), 3);
        bits.clear();
        assert!(bits.is_empty());
        assert!(!bits.contains(3));
    }

    #[test]
    fn relay_records_keep_the_first_value() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(0, 0);
        assert_eq!(ledger.relay_value(ch, pid(5)), None);
        assert_eq!(ledger.record_relay(ch, pid(5), Value::One), Value::One);
        // A conflicting later record does not overwrite; the caller learns
        // the first value and keeps its own override.
        assert_eq!(ledger.record_relay(ch, pid(5), Value::Zero), Value::One);
        assert_eq!(ledger.relay_value(ch, pid(5)), Some(Value::One));
    }

    #[test]
    fn channels_are_named_and_isolated() {
        let mut ledger = FloodLedger::new();
        let a = ledger.open(0, 0);
        let b = ledger.open(1, 0);
        assert_ne!(a, b);
        assert_eq!(ledger.open(0, 0), a, "same name joins the same channel");
        ledger.record_relay(a, pid(1), Value::One);
        assert_eq!(ledger.relay_value(b, pid(1)), None);
    }

    #[test]
    fn epochs_retire_and_recycle() {
        let mut ledger = FloodLedger::new();
        let e0 = ledger.open(0, 0);
        ledger.record_relay(e0, pid(9), Value::One);
        let _e1 = ledger.open(0, 1);
        // Opening epoch 2 retires epoch 0 and recycles its slot.
        let e2 = ledger.open(0, 2);
        assert_eq!(ledger.live_channels(), 2);
        assert_eq!(
            ledger.relay_value(e2, pid(9)),
            None,
            "recycled channel starts clean"
        );
    }

    #[test]
    fn long_epoch_sequences_keep_storage_bounded() {
        // Regression: a multi-phase algorithm restarts its flood once per
        // phase, opening one epoch each time. Retirement must keep both the
        // live channel count and the allocated slot count bounded — before
        // the shared fabric this was the per-node state that `restart`
        // recycled, and the ledger must not reintroduce the leak.
        let mut ledger = FloodLedger::new();
        for epoch in 0..64 {
            let channel = ledger.open(7, epoch);
            ledger.record_relay(channel, pid(epoch as usize), Value::One);
            assert!(
                ledger.live_channels() <= 2,
                "epoch {epoch}: {} live channels",
                ledger.live_channels()
            );
        }
        assert!(
            ledger.allocated_channels() <= 3,
            "retired slots must be recycled, not re-allocated: {}",
            ledger.allocated_channels()
        );
    }

    #[test]
    fn skipped_epochs_do_not_leak_channels() {
        // A step-indexed consumer can derive non-consecutive epochs (e.g.
        // only every third step floods). The old retirement rule removed
        // exactly `epoch - 2` and leaked everything older; the stale range
        // must be swept instead.
        let mut ledger = FloodLedger::new();
        let _ = ledger.open(0, 0);
        let _ = ledger.open(0, 3);
        assert_eq!(
            ledger.live_channels(),
            1,
            "epoch 0 is stale once epoch 3 opens"
        );
        let _ = ledger.open(0, 10);
        let _ = ledger.open(1, 0); // other tags are untouched
        assert_eq!(ledger.live_channels(), 2);
        assert!(ledger.allocated_channels() <= 3);
    }

    #[test]
    fn keyed_records_roundtrip() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(1, 0);
        let key: ReportKey = report_key(n(2), pid(4), n(0), pid(1));
        assert!(ledger.keyed_record(ch, &key).is_none());
        let record = ReportRecord {
            valid: true,
            value: Value::Zero,
            relay: pid(7),
            relay_members_low: 0b101,
            observed: n(0),
            observed_path: pid(1),
        };
        let index = ledger.insert_keyed(ch, key, record);
        let (found_index, found) = ledger.keyed_record(ch, &key).unwrap();
        assert_eq!(found_index, index);
        assert!(found.valid);
        assert_eq!(found.value, Value::Zero);
        assert_eq!(found.relay, pid(7));
        assert_eq!(ledger.record(ch, index).observed, n(0));
    }

    fn decode(relay: usize, first: Value) -> RelayDecode {
        RelayDecode {
            valid: true,
            relay: pid(relay),
            origin: n(4),
            relay_members_low: 0b1_0001,
            first,
        }
    }

    #[test]
    fn slot_table_entries_stay_small() {
        // The value table is the one that reaches full capacity (the event
        // loop's slots run on across a chain): 2^16 entries of 32 bytes.
        assert_eq!(std::mem::size_of::<Option<RelaySlot>>(), 32);
    }

    #[test]
    fn relay_slot_hits_only_on_its_full_key() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(0, 0);
        ledger.cache_relay_decode(ch, 7, n(3), pid(2), decode(9, Value::One));
        // A later receiver of the same slot and key: a verified hit.
        assert_eq!(
            ledger.relay_decode_at_slot(ch, 7, n(3), pid(2)),
            Some(decode(9, Value::One))
        );
        // The same slot holding another transmission misses, whether the
        // sender or the path differs, and so does another slot.
        assert_eq!(ledger.relay_decode_at_slot(ch, 7, n(1), pid(2)), None);
        assert_eq!(ledger.relay_decode_at_slot(ch, 7, n(3), pid(5)), None);
        assert_eq!(ledger.relay_decode_at_slot(ch, 8, n(3), pid(2)), None);
        // An invalid decode is cached like any other.
        ledger.cache_relay_decode(ch, 8, n(3), pid(6), RelayDecode::INVALID);
        assert_eq!(
            ledger.relay_decode_at_slot(ch, 8, n(3), pid(6)),
            Some(RelayDecode::INVALID)
        );
    }

    #[test]
    fn slot_entries_die_with_their_channel() {
        // Retirement recycles the channel slot, and with it the ChannelId;
        // an entry filled for the earlier flood must not answer for the new
        // one, whose first values start over.
        let mut ledger = FloodLedger::new();
        let e0 = ledger.open(0, 0);
        ledger.cache_relay_decode(e0, 0, n(3), pid(2), decode(9, Value::One));
        let report = report_key(n(1), pid(2), n(0), pid(1));
        let record = ReportRecord {
            valid: true,
            value: Value::One,
            relay: pid(5),
            relay_members_low: 0b10,
            observed: n(0),
            observed_path: pid(1),
        };
        let index = ledger.insert_keyed(e0, report, record);
        let _ = ledger.cache_slot(e0, 1, report, index);
        let _e1 = ledger.open(0, 1);
        let e2 = ledger.open(0, 2);
        assert_eq!(e2, e0, "epoch 2 reuses epoch 0's channel slot");
        assert_eq!(ledger.relay_decode_at_slot(e2, 0, n(3), pid(2)), None);
        assert!(ledger.report_lookup_at_slot(e2, 1, &report).is_none());
    }

    #[test]
    fn unfilled_slots_never_match() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(1, 0);
        // (v0, ⊥) is node 0's initiation and (v0, ⊥, v0, ⊥) a report
        // initiation on it: both are real wire identities, all-zero keys.
        assert_eq!(relay_key(n(0), PathId::EMPTY), 0);
        assert_eq!(report_key(n(0), PathId::EMPTY, n(0), PathId::EMPTY), (0, 0));
        assert_eq!(
            ledger.relay_decode_at_slot(ch, 0, n(0), PathId::EMPTY),
            None
        );
        assert!(ledger.report_slots.get(0).is_none());
        // Filling a far entry grows the table; the entries below it stay
        // unfilled and still match nothing.
        ledger.cache_relay_decode(ch, 5, n(3), pid(2), decode(9, Value::One));
        for slot in 0..5 {
            assert_eq!(
                ledger.relay_decode_at_slot(ch, slot, n(0), PathId::EMPTY),
                None
            );
        }
        // With no record, the report lookup misses in the table and the map.
        assert!(ledger.report_lookup_at_slot(ch, 0, &(0, 0)).is_none());
    }

    #[test]
    fn slot_tables_stay_bounded() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(0, 0);
        let far = (1u32 << 31) + 7;
        ledger.cache_relay_decode(ch, far, n(3), pid(2), decode(9, Value::One));
        assert_eq!(ledger.relay_slots.entries.len(), 8);
        assert_eq!(
            ledger.relay_decode_at_slot(ch, far, n(3), pid(2)),
            Some(decode(9, Value::One))
        );
        ledger.cache_relay_decode(ch, u32::MAX, n(1), pid(4), decode(8, Value::Zero));
        assert_eq!(ledger.relay_slots.entries.len(), SLOT_TABLE_CAPACITY);
        assert!(ledger.relay_slots.entries.capacity() <= SLOT_TABLE_CAPACITY);
        // Slot 2^31 + 7 and slot 7 share an entry: the later fill wins and
        // the earlier key misses.
        ledger.cache_relay_decode(ch, 7, n(1), pid(3), decode(10, Value::Zero));
        assert_eq!(ledger.relay_decode_at_slot(ch, far, n(3), pid(2)), None);
        assert_eq!(ledger.relay_slots.entries.len(), SLOT_TABLE_CAPACITY);
    }

    #[test]
    fn report_slot_hits_and_verifies() {
        let mut ledger = FloodLedger::new();
        let ch = ledger.open(1, 0);
        let key_a = report_key(n(1), pid(2), n(0), pid(1));
        let key_b = report_key(n(3), pid(2), n(0), pid(1));
        let record = ReportRecord {
            valid: true,
            value: Value::One,
            relay: pid(5),
            relay_members_low: 0b10,
            observed: n(0),
            observed_path: pid(1),
        };
        let index = ledger.insert_keyed(ch, key_a, record);
        // The first receiver fills slot 7.
        let first = ledger.report_lookup_at_slot(ch, 7, &key_a).unwrap();
        assert_eq!(first.index, index);
        assert_eq!(first.relay, pid(5));
        assert_eq!(first.relay_members_low, 0b10);
        // Same slot, same key: a hit.
        assert_eq!(
            ledger.report_lookup_at_slot(ch, 7, &key_a).unwrap().index,
            index
        );
        // The same slot with another, unrecorded key misses.
        assert!(ledger.report_lookup_at_slot(ch, 7, &key_b).is_none());
    }

    #[test]
    fn relay_contains_uses_the_memoized_word() {
        let lookup = ReportLookup {
            index: 0,
            valid: true,
            value: Value::One,
            relay: pid(5),
            relay_members_low: (1 << 3) | (1 << 40),
        };
        assert!(lookup.relay_contains(n(3), || unreachable!()));
        assert!(lookup.relay_contains(n(40), || unreachable!()));
        assert!(!lookup.relay_contains(n(4), || unreachable!()));
        // Indices >= 64 fall back to the caller's exact test.
        assert!(lookup.relay_contains(n(70), || true));
        assert!(!lookup.relay_contains(n(70), || false));
    }

    #[test]
    fn report_keys_pack_uniquely() {
        let a = report_key(n(1), pid(2), n(3), pid(4));
        let b = report_key(n(2), pid(1), n(3), pid(4));
        let c = report_key(n(1), pid(2), n(4), pid(3));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, report_key(n(1), pid(2), n(3), pid(4)));
    }

    #[test]
    fn pair_path_memo_shares_plans() {
        let mut ledger = FloodLedger::new();
        assert!(ledger.pair_paths(n(0), n(1)).is_none());
        let plan = vec![Path::from_nodes([n(0), n(2), n(1)])];
        let shared = ledger.set_pair_paths(n(0), n(1), plan.clone());
        assert_eq!(*shared, plan);
        assert_eq!(*ledger.pair_paths(n(0), n(1)).unwrap(), plan);
    }

    #[test]
    fn sessions_isolate_instances_and_stay_bounded() {
        // A chained repeated-consensus run begins one session per instance.
        // Each instance re-derives logical epoch 0 for its flood tags; the
        // session base must keep the names distinct, keep the previous
        // instance's channel live (its tail is still draining), and retire
        // everything two instances back.
        let mut ledger = FloodLedger::new();
        let mut previous = ledger.open(3, 0);
        ledger.record_relay(previous, pid(1), Value::One);
        for instance in 1..500 {
            ledger.begin_session();
            let current = ledger.open(3, 0);
            assert_ne!(
                current, previous,
                "instance {instance} joined a stale channel"
            );
            assert_eq!(
                ledger.relay_value(current, pid(1)),
                None,
                "instance {instance} sees the previous instance's records"
            );
            ledger.record_relay(current, pid(1), Value::One);
            assert!(
                ledger.live_channels() <= 2,
                "instance {instance} leaks channels"
            );
            assert!(ledger.max_live_channels_per_tag() <= 2);
            previous = current;
        }
        assert!(
            ledger.allocated_channels() <= 3,
            "retired instance channels must recycle slots: {}",
            ledger.allocated_channels()
        );
        assert_eq!(ledger.live_tag_count(), 1);
    }

    #[test]
    fn sessions_clear_multi_epoch_instances() {
        // An instance that advances several logical epochs itself (Algorithm
        // 1 restarts once per candidate fault set) must still hand the next
        // session a base above its peak, and per-tag liveness stays bounded.
        let mut ledger = FloodLedger::new();
        for _ in 0..50 {
            for epoch in 0..5 {
                let _ = ledger.open(7, epoch);
                let _ = ledger.open(8, epoch);
            }
            assert!(ledger.max_live_channels_per_tag() <= 2);
            ledger.begin_session();
        }
        assert_eq!(ledger.live_tag_count(), 2);
        assert!(ledger.allocated_channels() <= 6);
    }

    #[test]
    fn session_retire_through_shifts_with_the_base() {
        let mut ledger = FloodLedger::new();
        let _ = ledger.open(0, 0);
        ledger.begin_session();
        let _ = ledger.open(0, 0);
        // Logical retirement in the new session must not miss the previous
        // session's channel once explicitly asked to sweep it.
        ledger.retire_through(0, 0);
        assert_eq!(ledger.live_channels(), 0);
    }

    #[test]
    fn shared_handle_is_one_ledger() {
        let shared = SharedFloodLedger::new();
        let clone = shared.clone();
        let ch = shared.open(0, 0);
        assert_eq!(
            clone.borrow_mut().record_relay(ch, pid(3), Value::One),
            Value::One
        );
        assert_eq!(shared.borrow().relay_value(ch, pid(3)), Some(Value::One));
    }
}
