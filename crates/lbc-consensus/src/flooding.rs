//! Path-annotated flooding with the forwarding rules of Algorithm 1.
//!
//! Flooding is the communication workhorse of the paper's algorithms. To
//! flood its value, a node broadcasts `(γ, ⊥)`; when a node `v` receives
//! `(b, Π)` from neighbor `u` it applies, in order:
//!
//! 1. **rule (i)** — if `Π‑u` is not a path of `G`, discard;
//! 2. **rule (ii)** — if `v` already received from `u` a message containing
//!    path `Π`, discard (this is what suppresses equivocation under local
//!    broadcast: all of `u`'s neighbors see the same first message for each
//!    `(u, Π)` key, so a faulty `u` cannot deliver conflicting copies);
//! 3. **rule (iii)** — if `Π‑u` already contains `v`, discard (bounds
//!    flooding to `n` rounds);
//! 4. **rule (iv)** — otherwise `v` *receives value `b` along path `Π‑u`* and
//!    forwards `(b, Π‑u)`.
//!
//! If a neighbor fails to initiate flooding in the first round, the node
//! substitutes the default message `(1, ⊥)` on its behalf.
//!
//! # Engines
//!
//! Two implementations of the rules, one checked against the other:
//!
//! * [`LedgerFlooder`] — the production engine, built on the shared flood
//!   fabric. Paths travel as interned [`PathId`]s against the execution's
//!   [`SharedPathArena`]. Rule-(ii) state is a [`DenseBits`] bitset over
//!   interned relay ids, and first values live **once per execution** in the
//!   [`lbc_model::FloodLedger`] (under local broadcast every neighbor
//!   receives the same first message per `(sender, Π)` key, so per-node
//!   value maps are redundant; a per-node override map keeps the engine
//!   exactly per-node-faithful under equivocation-capable models too). Each
//!   transmission is decoded once — rule (i), the relay id, the first-value
//!   record — and the decode is cached in the ledger's slot table for the
//!   transmission's other receivers. A per-origin index makes
//!   [`LedgerFlooder::received_from`] and [`LedgerFlooder::relay_ids_from`]
//!   indexed lookups instead of full-map scans, and lets
//!   [`LedgerFlooder::received_along_disjoint_paths`] answer Definition C.1
//!   from the relays' member bitsets.
//! * [`NaiveFlooder`] — the pre-interning reference engine (`BTreeMap` keyed
//!   by cloned [`Path`]s), kept as the oracle for the equivalence tests and
//!   the `naive` benchmark variants.
//!
//! Both must behave byte-identically; the `flood_equivalence` integration
//! test compares them on whole-graph flood scripts.

use std::collections::BTreeMap;

use lbc_graph::{paths, Graph};
use lbc_model::{
    ChannelId, DenseBits, FloodLedger, NodeId, NodeSet, Path, PathArena, PathId, RelayDecode,
    SharedFloodLedger, SharedPathArena, Value,
};
use lbc_sim::{ByzantineMessage, Inbox, Outgoing};

use crate::messages::FloodMsg;

/// Ledger channel tag of value floods (Algorithm 1/3 phases, Algorithm 2
/// phase 1, point-to-point king steps).
pub(crate) const TAG_VALUE: u32 = 0;
/// Ledger channel tag of Algorithm 2's phase-2 report flood. (The phase-3
/// decision flood needs no channel: its rule-(ii) keys are interned relay
/// ids, so the arena itself is the shared key space.)
pub(crate) const TAG_REPORT: u32 = 1;

/// Rule-(i) validation with incremental memoization: a non-empty path is a
/// path of `G` iff its parent prefix is one, its last node is valid and
/// adjacent to the parent's last node, and it repeats no node. Prefixes are
/// shared trie entries and validity is memoized *in the arena* (a per-entry
/// byte, shared by every node of the execution), so each distinct prefix is
/// validated exactly once per execution — the common case is a single array
/// read. `suffix` is a caller-owned scratch buffer so the hot path never
/// allocates.
pub(crate) fn validate_path(
    arena: &mut PathArena,
    suffix: &mut Vec<PathId>,
    graph: &Graph,
    id: PathId,
) -> bool {
    if let Some(valid) = arena.path_validity(id) {
        return valid;
    }
    // Collect the unvalidated suffix, deepest entry first.
    suffix.clear();
    suffix.push(id);
    let (mut cursor, _) = arena.step(id).expect("non-empty path has a parent");
    while arena.path_validity(cursor).is_none() {
        suffix.push(cursor);
        let (parent, _) = arena.step(cursor).expect("non-empty path has a parent");
        cursor = parent;
    }
    if arena.path_validity(cursor) == Some(false) {
        // An invalid prefix poisons every extension.
        for &entry in suffix.iter() {
            arena.set_path_validity(entry, false);
        }
        return false;
    }
    // `cursor` is a known-valid prefix (or ⊥). Validate forward.
    let mut all_valid = true;
    for &entry in suffix.iter().rev() {
        let (parent, last) = arena.step(entry).expect("non-empty path has a parent");
        all_valid = all_valid
            && arena.is_simple(entry)
            && graph.contains_node(last)
            && arena
                .last(parent)
                .is_none_or(|prev| graph.has_edge(prev, last));
        arena.set_path_validity(entry, all_valid);
    }
    all_valid
}

/// The receiver-independent part of rules (i)–(iv) for the transmission
/// `msg` from `from`: rule (i)'s verdict, the interned relay id `Π‑from`,
/// its origin and low member word, and the first value `channel` records
/// for the relay (recorded here if this is the first). Every receiver of one
/// broadcast would compute the same result, so [`LedgerFlooder::on_round`]
/// runs it once per transmission and caches it in the ledger's slot table;
/// the missing-initiation defaults, which have no slot, call it directly.
fn decode(
    arena: &mut PathArena,
    ledger: &mut FloodLedger,
    scratch: &mut Vec<PathId>,
    graph: &Graph,
    channel: ChannelId,
    from: NodeId,
    msg: &FloodMsg,
) -> RelayDecode {
    // Rule (i): the relay path Π‑u must exist in G. Equivalent to: Π is a
    // (simple) path of G, u is a valid node not on Π, and u is adjacent to
    // Π's last node. Validation reads the arena's shared memo, so the common
    // case is a single array read.
    if !graph.contains_node(from)
        || !validate_path(arena, scratch, graph, msg.path)
        || arena.contains(msg.path, from)
        || arena
            .last(msg.path)
            .is_some_and(|last| !graph.has_edge(last, from))
    {
        return RelayDecode::INVALID;
    }
    let relay = arena.extended(msg.path, from);
    // Π‑u passed the same checks as Π, so it is a graph path; memoize.
    arena.set_path_validity(relay, true);
    RelayDecode {
        valid: true,
        relay,
        origin: arena.first(relay).expect("relay path contains the sender"),
        relay_members_low: arena
            .members(relay)
            .as_words()
            .first()
            .copied()
            .unwrap_or(0),
        first: ledger.record_relay(channel, relay, msg.value),
    }
}

/// The production flood engine: per-phase flooding state of a single node,
/// built on the shared flood fabric.
///
/// The caller drives the flooder from its protocol hooks:
/// [`LedgerFlooder::start`] produces the initiation broadcast,
/// [`LedgerFlooder::on_round`] consumes the round's deliveries and produces
/// the forwards, and the `received_*` accessors answer the "which value did
/// I receive along path `P`?" queries of steps (b) and (c).
///
/// The paper's rule (ii) observes that under local broadcast every neighbor
/// of `u` receives the *same* first message per `(u, Π)` key. That is what
/// makes the rule suppress equivocation; this engine also uses it for
/// speed: each distinct broadcast is recorded **once per execution** in the
/// shared [`lbc_model::FloodLedger`] (keyed by the interned relay id
/// `Π‑u`), and per-node rule-(ii) state collapses to a [`DenseBits`] bitset
/// over relay ids. The first receiver of a transmission decodes it — rule
/// (i), the relay id, its origin and member word, the first-value record —
/// and caches the decode in the ledger's slot table under the
/// transmission's inbox slot. Every other receiver finds it there with one
/// verified entry read and does only its per-node work: the rule-(ii) bit,
/// an override if its value differs from the first one recorded, rule (iii)
/// from the member word, and the per-origin index push.
///
/// Sharing is an optimization, not an assumption: when a node's own first
/// value for a key differs from the ledger record (possible only under
/// equivocation-capable channels — hybrid-model equivocators, the
/// point-to-point baseline, or the doubled networks of the impossibility
/// constructions), the node keeps a per-node override, so the engine is
/// observably identical to per-node flood state (the [`NaiveFlooder`]
/// reference) under *every* communication model. The `flood_equivalence`
/// tests compare the two engines.
#[derive(Debug, Clone)]
pub struct LedgerFlooder {
    me: NodeId,
    own_value: Option<Value>,
    /// Handle to the execution-wide path arena message ids resolve against.
    arena: SharedPathArena,
    /// Handle to the execution-wide shared flood ledger.
    ledger: SharedFloodLedger,
    /// The ledger channel this flood records into (all nodes of the same
    /// flood derive the same `(tag, epoch)` name and share the channel).
    channel: ChannelId,
    tag: u32,
    epoch: u32,
    /// Rule-(ii) membership: the relay ids (`Π‑sender`) of every broadcast
    /// this node processed. One bit per arena entry instead of a hash map
    /// entry per key.
    seen: DenseBits,
    /// Per-node first values that differ from the ledger's record. Provably
    /// empty under local broadcast; populated only when the communication
    /// model lets a sender deliver different copies to different receivers.
    overrides: lbc_model::fx::FxHashMap<PathId, Value>,
    /// Per-origin index over the received (rule-(iv)-accepted) relay ids —
    /// the full path minus the trailing `me` — in arrival order, densely
    /// indexed by origin. This is what turns `received_from` /
    /// `relay_ids_from` into indexed lookups instead of scans over every
    /// received path. The node's own value sits under the empty relay path
    /// at index `me`.
    by_origin: Vec<Vec<PathId>>,
    /// Count of received full paths (rule (iv) accepts plus the own value).
    received_total: usize,
    /// Scratch buffer for [`validate_path`] (avoids per-message allocation).
    validate_scratch: Vec<PathId>,
    /// Whether the missing-initiation defaults have been injected yet.
    defaults_injected: bool,
}

impl LedgerFlooder {
    /// Creates the flooder on the default value-flood channel and returns
    /// the initiation broadcast `(value, ⊥)`.
    #[must_use]
    pub fn start(
        arena: SharedPathArena,
        ledger: SharedFloodLedger,
        me: NodeId,
        value: Value,
    ) -> (Self, Vec<Outgoing<FloodMsg>>) {
        Self::start_on(arena, ledger, me, value, TAG_VALUE, 0)
    }

    /// Creates the flooder on the channel named `(tag, epoch)` and returns
    /// the initiation broadcast. Every node of the same flood must derive
    /// the same name (e.g. the point-to-point baseline uses its global step
    /// index as the epoch).
    #[must_use]
    pub fn start_on(
        arena: SharedPathArena,
        ledger: SharedFloodLedger,
        me: NodeId,
        value: Value,
        tag: u32,
        epoch: u32,
    ) -> (Self, Vec<Outgoing<FloodMsg>>) {
        let mut flooder = Self::observer_on(arena, ledger, me, tag, epoch);
        flooder.own_value = Some(value);
        flooder.by_origin.resize(me.index() + 1, Vec::new());
        flooder.by_origin[me.index()].push(PathId::EMPTY);
        flooder.received_total = 1;
        let out = vec![Outgoing::Broadcast(FloodMsg::initiation(value))];
        (flooder, out)
    }

    /// Creates a flooder that relays other nodes' floods without initiating
    /// one of its own, on the default value-flood channel.
    #[must_use]
    pub fn observer(arena: SharedPathArena, ledger: SharedFloodLedger, me: NodeId) -> Self {
        Self::observer_on(arena, ledger, me, TAG_VALUE, 0)
    }

    /// Creates an observer on the channel named `(tag, epoch)`.
    #[must_use]
    pub fn observer_on(
        arena: SharedPathArena,
        ledger: SharedFloodLedger,
        me: NodeId,
        tag: u32,
        epoch: u32,
    ) -> Self {
        let channel = ledger.open(tag, epoch);
        LedgerFlooder {
            me,
            own_value: None,
            arena,
            ledger,
            channel,
            tag,
            epoch,
            seen: DenseBits::new(),
            overrides: lbc_model::fx::FxHashMap::default(),
            by_origin: Vec::new(),
            received_total: 0,
            validate_scratch: Vec::new(),
            defaults_injected: false,
        }
    }

    /// The value this node initiated the flood with, if it initiated one.
    #[must_use]
    pub fn own_value(&self) -> Option<Value> {
        self.own_value
    }

    /// Resets the flooder for a fresh flood of `value` on the next epoch of
    /// its channel and returns the new initiation broadcast, *keeping every
    /// allocation*: the rule-(ii) bitset, the per-origin index vectors and
    /// the validation scratch buffer all survive, so a multi-phase algorithm
    /// (Algorithm 1 floods once per candidate fault set) re-floods without
    /// rebuilding its state tables. The shared arena is untouched: interned
    /// paths and their graph-validity memo persist across phases by design.
    /// Opening the next epoch retires the channel two epochs back, so a long
    /// multi-phase run recycles its shared state instead of accumulating it.
    ///
    /// Observable behaviour is identical to dropping the flooder and calling
    /// [`LedgerFlooder::start_on`] on the next epoch with the same arena and
    /// ledger.
    pub fn restart(&mut self, value: Value) -> Vec<Outgoing<FloodMsg>> {
        self.epoch += 1;
        self.channel = self.ledger.open(self.tag, self.epoch);
        self.own_value = Some(value);
        self.seen.clear();
        self.overrides.clear();
        for per_origin in &mut self.by_origin {
            per_origin.clear();
        }
        if self.by_origin.len() <= self.me.index() {
            self.by_origin.resize(self.me.index() + 1, Vec::new());
        }
        self.by_origin[self.me.index()].push(PathId::EMPTY);
        self.received_total = 1;
        self.defaults_injected = false;
        vec![Outgoing::Broadcast(FloodMsg::initiation(value))]
    }

    /// Processes one round of deliveries and returns the forwards to
    /// transmit. `first_round` must be true exactly for the round in which
    /// initiations are due (relative round 0 of the phase); at the end of
    /// that round, missing initiations from neighbors are replaced by the
    /// default `(1, ⊥)`.
    pub fn on_round(
        &mut self,
        graph: &Graph,
        first_round: bool,
        inbox: Inbox<'_, FloodMsg>,
    ) -> Vec<Outgoing<FloodMsg>> {
        let deliveries = inbox
            .iter_indexed()
            .map(|(slot, delivery)| (slot, delivery.from, &delivery.message));
        self.on_round_slots(graph, first_round, deliveries)
    }

    /// [`LedgerFlooder::on_round`] over `(slot, sender, message)` triples,
    /// for protocols whose inbox carries other messages too. Pass each
    /// transmission's slot in the shared buffer ([`Inbox::iter_indexed`]):
    /// receivers that pass the same slot for the same transmission share
    /// its decode. Any numbering is correct, since the ledger checks every
    /// entry against its full key.
    pub fn on_round_slots<'m>(
        &mut self,
        graph: &Graph,
        first_round: bool,
        deliveries: impl IntoIterator<Item = (u32, NodeId, &'m FloodMsg)>,
    ) -> Vec<Outgoing<FloodMsg>> {
        // Borrow the shared structures once for the whole round, not once
        // per delivery.
        let (arena, ledger) = (self.arena.clone(), self.ledger.clone());
        let mut arena = arena.borrow_mut();
        let mut ledger = ledger.borrow_mut();
        let channel = self.channel;
        let mut out = Vec::new();
        for (slot, from, msg) in deliveries {
            let decoded = match ledger.relay_decode_at_slot(channel, slot, from, msg.path) {
                Some(cached) => cached,
                None => {
                    let decoded = decode(
                        &mut arena,
                        &mut ledger,
                        &mut self.validate_scratch,
                        graph,
                        channel,
                        from,
                        msg,
                    );
                    ledger.cache_relay_decode(channel, slot, from, msg.path, decoded);
                    decoded
                }
            };
            out.extend(
                self.receive(&arena, decoded, msg.value)
                    .map(Outgoing::Broadcast),
            );
        }
        if first_round && !self.defaults_injected {
            self.defaults_injected = true;
            let default = FloodMsg::initiation(Value::DEFAULT_FLOOD);
            for neighbor in graph.neighbors(self.me) {
                let initiation_seen = arena
                    .find_child(PathId::EMPTY, neighbor)
                    .is_some_and(|relay| self.seen.contains(relay.index()));
                if !initiation_seen {
                    let decoded = decode(
                        &mut arena,
                        &mut ledger,
                        &mut self.validate_scratch,
                        graph,
                        channel,
                        neighbor,
                        &default,
                    );
                    out.extend(
                        self.receive(&arena, decoded, default.value)
                            .map(Outgoing::Broadcast),
                    );
                }
            }
        }
        out
    }

    /// Applies this node's part of rules (ii)–(iv) to a decoded
    /// transmission carrying `value`, returning the forward to broadcast,
    /// if any.
    fn receive(
        &mut self,
        arena: &PathArena,
        decoded: RelayDecode,
        value: Value,
    ) -> Option<FloodMsg> {
        // Rule (i), decided once per transmission.
        if !decoded.valid {
            return None;
        }
        // Rule (ii): the relay id Π‑u *is* the (sender, path) key, so the
        // rule is one bit test on the per-node bitset. Every message that
        // passes rule (i) is recorded, whether rule (iii) then discards it
        // or not.
        let relay = decoded.relay;
        if !self.seen.insert(relay.index()) {
            return None;
        }
        // The ledger holds the broadcast's first value. A mismatch (possible
        // only under equivocation-capable channels) becomes a per-node
        // override so queries keep answering with *this node's* view.
        if value != decoded.first {
            self.overrides.insert(relay, value);
        }
        // Rule (iii): discard if the relay path Π‑u already contains me.
        if decoded.relay_contains(self.me, || arena.contains(relay, self.me)) {
            return None;
        }
        // Rule (iv): record the relay in the per-origin index and forward.
        let origin = decoded.origin.index();
        if self.by_origin.len() <= origin {
            self.by_origin.resize(origin + 1, Vec::new());
        }
        self.by_origin[origin].push(relay);
        self.received_total += 1;
        Some(FloodMsg { value, path: relay })
    }

    /// This node's first-received value for a seen relay key (override if
    /// the node's view diverged from the ledger record, else the record).
    fn seen_value(&self, relay: PathId) -> Value {
        self.overrides.get(&relay).copied().unwrap_or_else(|| {
            self.ledger
                .relay_value(self.channel, relay)
                .expect("seen relay has a ledger record")
        })
    }

    /// The value received along the full path `origin … me`, if any. The
    /// node's own value is available along the single-node path `[me]`.
    #[must_use]
    pub fn value_along(&self, full_path: &Path) -> Option<Value> {
        let nodes = full_path.nodes();
        let (&last, relay_nodes) = nodes.split_last()?;
        if last != self.me {
            return None;
        }
        let relay = self.arena.borrow().find_slice(relay_nodes)?;
        self.value_along_relay(relay)
    }

    /// The value received along the full path `relay‑me`, given the interned
    /// relay id (the path annotation the last transmitter forwarded with,
    /// i.e. the full path minus this node). The node's own value is under
    /// the empty relay path.
    ///
    /// Only paths actually *received* under rule (iv) answer: a `(sender,
    /// path)` key that was overheard but discarded by rule (iii) is not a
    /// received path and yields `None`.
    #[must_use]
    pub fn value_along_relay(&self, relay: PathId) -> Option<Value> {
        {
            let arena = self.arena.borrow();
            if arena.step(relay).is_none() {
                return self.own_value; // the empty relay path: the own value
            }
            // Rule-(iii) guard: the relay was accepted only if it does not
            // involve me (as sender or prefix node).
            if arena.contains(relay, self.me) {
                return None;
            }
        }
        if !self.seen.contains(relay.index()) {
            return None;
        }
        Some(self.seen_value(relay))
    }

    /// The interned relay-path ids received from `origin`, in arrival order
    /// (the full paths are these plus a trailing `me`). This is the
    /// allocation-free, indexed counterpart of
    /// [`LedgerFlooder::received_from`].
    #[must_use]
    pub fn relay_ids_from(&self, origin: NodeId) -> &[PathId] {
        self.by_origin
            .get(origin.index())
            .map_or(&[], Vec::as_slice)
    }

    /// The value of an *indexed* (accepted) relay id.
    fn relay_value(&self, arena: &PathArena, relay: PathId) -> Option<Value> {
        match arena.step(relay) {
            None => self.own_value,
            Some(_) => Some(self.seen_value(relay)),
        }
    }

    /// Resolves a stored relay id into the full received path `relay‑me`.
    fn resolve_full(&self, arena: &PathArena, relay: PathId) -> Path {
        let mut nodes = arena.nodes(relay);
        nodes.push(self.me);
        Path::from_nodes(nodes)
    }

    /// All `(full path, value)` pairs received from `origin` (paths start at
    /// `origin` and end at this node), in lexicographic path order — the
    /// same order the pre-interning engine produced.
    #[must_use]
    pub fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)> {
        let arena = self.arena.borrow();
        let mut entries: Vec<(Path, Value)> = self
            .relay_ids_from(origin)
            .iter()
            .map(|id| {
                let value = self
                    .relay_value(&arena, *id)
                    .expect("indexed relay has a value");
                (self.resolve_full(&arena, *id), value)
            })
            .collect();
        entries.sort();
        entries
    }

    /// Definition C.1's path test: whether this node received `value` from
    /// `origin` along `k` pairwise internally disjoint paths. Reads the
    /// relays' memoized member sets and resolves no path: the internal nodes
    /// of the full path `relay‑me` are the relay's members minus `origin`,
    /// since rule (iii) keeps `me` out of every indexed relay.
    #[must_use]
    pub fn received_along_disjoint_paths(&self, origin: NodeId, value: Value, k: usize) -> bool {
        let arena = self.arena.borrow();
        let internal: Vec<NodeSet> = self
            .relay_ids_from(origin)
            .iter()
            .filter(|id| self.relay_value(&arena, **id) == Some(value))
            .map(|id| {
                let mut members = arena.members(*id).clone();
                members.remove(origin);
                members
            })
            .collect();
        paths::has_disjoint_family(internal, k)
    }

    /// Every `(sender, path id, value)` accepted under rule (ii) from direct
    /// neighbors — everything this node *overheard*, which is exactly what
    /// Algorithm 2's phase 2 reports on. Sorted by `(sender, path)`, as the
    /// reference engine's `BTreeMap` iteration is.
    #[must_use]
    pub fn overheard_ids(&self) -> Vec<(NodeId, PathId, Value)> {
        let arena = self.arena.borrow();
        let mut entries: Vec<(NodeId, PathId, Value)> = self
            .seen
            .ones()
            .map(|index| {
                let relay = PathId::from_index(index);
                let (prefix, last) = arena.step(relay).expect("seen relays are non-empty");
                (last, prefix, self.seen_value(relay))
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| arena.cmp_nodes(a.1, b.1)));
        entries
    }

    /// Whether this node overheard `observed` transmit exactly `(value, Π)`,
    /// with `Π` given as an interned id — the indexed counterpart of
    /// scanning [`LedgerFlooder::overheard_ids`].
    #[must_use]
    pub fn overheard_exactly(&self, observed: NodeId, path: PathId, value: Value) -> bool {
        let relay = self.arena.borrow().find_child(path, observed);
        relay.is_some_and(|relay| {
            self.seen.contains(relay.index()) && self.seen_value(relay) == value
        })
    }

    /// Number of distinct full paths along which values were received.
    #[must_use]
    pub fn received_count(&self) -> usize {
        self.received_total
    }
}

/// A flooding message carrying an owned [`Path`], used by [`NaiveFlooder`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NaiveFloodMsg {
    /// The flooded binary value.
    pub value: Value,
    /// The relay path so far (excluding the current transmitter).
    pub path: Path,
}

impl NaiveFloodMsg {
    /// The initiation message `(value, ⊥)`.
    #[must_use]
    pub fn initiation(value: Value) -> Self {
        NaiveFloodMsg {
            value,
            path: Path::empty(),
        }
    }
}

impl ByzantineMessage for NaiveFloodMsg {
    fn tampered(&self) -> Self {
        NaiveFloodMsg {
            value: self.value.flipped(),
            path: self.path.clone(),
        }
    }
}

/// The pre-interning flood engine, kept verbatim as the control: `BTreeMap`
/// state keyed by cloned [`Path`]s, with full-map scans in the accessors.
///
/// Benchmarks compare [`LedgerFlooder`] against this implementation, and
/// the equivalence tests assert identical observable behaviour.
#[derive(Debug, Clone)]
pub struct NaiveFlooder {
    me: NodeId,
    own_value: Option<Value>,
    seen: BTreeMap<(NodeId, Path), Value>,
    received: BTreeMap<Path, Value>,
    defaults_injected: bool,
}

impl NaiveFlooder {
    /// Creates the flooder and returns the initiation broadcast `(value, ⊥)`.
    #[must_use]
    pub fn start(me: NodeId, value: Value) -> (Self, Vec<Outgoing<NaiveFloodMsg>>) {
        let mut received = BTreeMap::new();
        received.insert(Path::singleton(me), value);
        let flooder = NaiveFlooder {
            me,
            own_value: Some(value),
            seen: BTreeMap::new(),
            received,
            defaults_injected: false,
        };
        let out = vec![Outgoing::Broadcast(NaiveFloodMsg::initiation(value))];
        (flooder, out)
    }

    /// The value this node initiated the flood with, if it initiated one.
    #[must_use]
    pub fn own_value(&self) -> Option<Value> {
        self.own_value
    }

    /// Processes one round of deliveries; see [`LedgerFlooder::on_round`].
    pub fn on_round(
        &mut self,
        graph: &Graph,
        first_round: bool,
        inbox: Inbox<'_, NaiveFloodMsg>,
    ) -> Vec<Outgoing<NaiveFloodMsg>> {
        let mut out = Vec::new();
        for delivery in inbox.iter() {
            out.extend(self.process(graph, delivery.from, &delivery.message));
        }
        if first_round && !self.defaults_injected {
            self.defaults_injected = true;
            for neighbor in graph.neighbors(self.me) {
                let key = (neighbor, Path::empty());
                if !self.seen.contains_key(&key) {
                    let default = NaiveFloodMsg::initiation(Value::DEFAULT_FLOOD);
                    out.extend(self.process(graph, neighbor, &default));
                }
            }
        }
        out
    }

    fn process(
        &mut self,
        graph: &Graph,
        from: NodeId,
        msg: &NaiveFloodMsg,
    ) -> Vec<Outgoing<NaiveFloodMsg>> {
        // Rule (i): the relay path Π‑u must exist in G.
        let relay_path = msg.path.extended(from);
        if !graph.is_path(&relay_path) {
            return Vec::new();
        }
        // Rule (ii): at most one message per (sender, path) key.
        let key = (from, msg.path.clone());
        if self.seen.contains_key(&key) {
            return Vec::new();
        }
        self.seen.insert(key, msg.value);
        // Rule (iii): discard if the relay path already contains me.
        if relay_path.contains(self.me) {
            return Vec::new();
        }
        // Rule (iv): record the value as received along Π‑u and forward.
        let full = relay_path.extended(self.me);
        self.received.insert(full, msg.value);
        vec![Outgoing::Broadcast(NaiveFloodMsg {
            value: msg.value,
            path: relay_path,
        })]
    }

    /// See [`LedgerFlooder::value_along`].
    #[must_use]
    pub fn value_along(&self, full_path: &Path) -> Option<Value> {
        self.received.get(full_path).copied()
    }

    /// See [`LedgerFlooder::received_from`] — here a full-map scan.
    #[must_use]
    pub fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)> {
        self.received
            .iter()
            .filter(|(path, _)| path.first() == Some(origin))
            .map(|(path, value)| (path.clone(), *value))
            .collect()
    }

    /// The full paths from `origin` along which this node received `value`,
    /// in lexicographic path order — a full-map scan.
    #[must_use]
    pub fn paths_with_value(&self, origin: NodeId, value: Value) -> Vec<Path> {
        self.received
            .iter()
            .filter(|(path, v)| path.first() == Some(origin) && **v == value)
            .map(|(path, _)| path.clone())
            .collect()
    }

    /// Every `(sender, path, value)` accepted under rule (ii); see
    /// [`LedgerFlooder::overheard_ids`].
    #[must_use]
    pub fn overheard(&self) -> Vec<(NodeId, Path, Value)> {
        self.seen
            .iter()
            .map(|((from, path), value)| (*from, path.clone(), *value))
            .collect()
    }

    /// See [`LedgerFlooder::received_count`].
    #[must_use]
    pub fn received_count(&self) -> usize {
        self.received.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbc_graph::generators;
    use lbc_sim::Delivery;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn deliver(
        arena: &SharedPathArena,
        from: usize,
        value: Value,
        path: &[usize],
    ) -> Delivery<FloodMsg> {
        let path = arena.intern(&Path::from_nodes(path.iter().map(|&i| n(i))));
        Delivery {
            from: n(from),
            message: FloodMsg { value, path },
        }
    }

    fn started(i: usize, value: Value) -> (SharedPathArena, LedgerFlooder) {
        let arena = SharedPathArena::new();
        let (flooder, _) =
            LedgerFlooder::start(arena.clone(), SharedFloodLedger::new(), n(i), value);
        (arena, flooder)
    }

    #[test]
    fn start_records_own_value_and_broadcasts_initiation() {
        let arena = SharedPathArena::new();
        let (flooder, out) =
            LedgerFlooder::start(arena, SharedFloodLedger::new(), n(0), Value::One);
        assert_eq!(out.len(), 1);
        assert_eq!(
            flooder.value_along(&Path::singleton(n(0))),
            Some(Value::One)
        );
        assert_eq!(flooder.own_value(), Some(Value::One));
    }

    #[test]
    fn accepts_and_forwards_valid_messages() {
        // Cycle 0-1-2-3-4; we are node 2 and receive node 0's initiation via 1.
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        let out = flooder.on_round(
            &g,
            true,
            Inbox::direct(&[deliver(&arena, 1, Value::One, &[0])]),
        );
        // Forward (1, [0,1]) plus defaults for the missing neighbor 3.
        assert!(out.iter().any(
            |o| matches!(o, Outgoing::Broadcast(m) if arena.resolve(m.path).nodes() == [n(0), n(1)])
        ));
        let full = Path::from_nodes([n(0), n(1), n(2)]);
        assert_eq!(flooder.value_along(&full), Some(Value::One));
        let relay_id = arena.find(&Path::from_nodes([n(0), n(1)])).unwrap();
        assert_eq!(flooder.value_along_relay(relay_id), Some(Value::One));
        assert_eq!(flooder.relay_ids_from(n(0)), &[relay_id]);
    }

    #[test]
    fn rule_i_rejects_non_paths() {
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        // Claimed path [0, 3] then sender 1: 0-3 is not an edge on the cycle.
        let out = flooder.on_round(
            &g,
            false,
            Inbox::direct(&[deliver(&arena, 1, Value::One, &[0, 3])]),
        );
        assert!(out.is_empty());
        assert_eq!(flooder.received_count(), 1); // only the own value
    }

    #[test]
    fn rule_i_rejects_senders_already_on_the_path() {
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        // Relay path [1, 0] re-transmitted by node 1: 1 is already on Π.
        let out = flooder.on_round(
            &g,
            false,
            Inbox::direct(&[deliver(&arena, 1, Value::One, &[1, 0])]),
        );
        assert!(out.is_empty());
        assert_eq!(flooder.received_count(), 1);
    }

    #[test]
    fn rule_ii_keeps_only_the_first_message_per_sender_path() {
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        let first = deliver(&arena, 1, Value::One, &[0]);
        let conflicting = deliver(&arena, 1, Value::Zero, &[0]);
        let out1 = flooder.on_round(&g, false, Inbox::direct(&[first, conflicting]));
        // Only one forward for the (1, [0]) key.
        assert_eq!(out1.len(), 1);
        let full = Path::from_nodes([n(0), n(1), n(2)]);
        assert_eq!(flooder.value_along(&full), Some(Value::One));
    }

    #[test]
    fn rule_iii_discards_paths_containing_me() {
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        // Path [2, 3] from sender 4: contains me (2), discard silently.
        let out = flooder.on_round(
            &g,
            false,
            Inbox::direct(&[deliver(&arena, 4, Value::One, &[2, 3])]),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn missing_initiations_get_the_default_value() {
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        // Neighbor 1 initiates, neighbor 3 stays silent.
        let out = flooder.on_round(
            &g,
            true,
            Inbox::direct(&[deliver(&arena, 1, Value::Zero, &[])]),
        );
        // We forward both node 1's initiation and the default for node 3.
        assert_eq!(out.len(), 2);
        let via3 = Path::from_nodes([n(3), n(2)]);
        assert_eq!(flooder.value_along(&via3), Some(Value::DEFAULT_FLOOD));
        // A late real initiation from 3 is now ignored (rule (ii)).
        let out = flooder.on_round(
            &g,
            false,
            Inbox::direct(&[deliver(&arena, 3, Value::Zero, &[])]),
        );
        assert!(out.is_empty());
        assert_eq!(flooder.value_along(&via3), Some(Value::DEFAULT_FLOOD));
    }

    #[test]
    fn received_from_and_relay_ids_filter_by_origin() {
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        let _ = flooder.on_round(
            &g,
            true,
            Inbox::direct(&[
                deliver(&arena, 1, Value::One, &[0]),
                deliver(&arena, 3, Value::Zero, &[4]),
            ]),
        );
        let from0 = flooder.received_from(n(0));
        assert_eq!(from0.len(), 1);
        assert_eq!(from0[0].1, Value::One);
        // The full paths from 4 are its relays plus the trailing me.
        let from4: Vec<(Path, Option<Value>)> = flooder
            .relay_ids_from(n(4))
            .iter()
            .map(|relay| {
                let full = arena.resolve(*relay).extended(n(2));
                (full, flooder.value_along_relay(*relay))
            })
            .collect();
        let via3 = Path::from_nodes([n(4), n(3), n(2)]);
        assert_eq!(from4, vec![(via3.clone(), Some(Value::Zero))]);
        // Its internal node 3 is what an exclusion of {3} rules out.
        let excl: NodeSet = [n(3)].into_iter().collect();
        assert!(!via3.excludes(&excl));
    }

    #[test]
    fn overheard_lists_accepted_sender_path_pairs() {
        let g = generators::cycle(5);
        let (arena, mut flooder) = started(2, Value::Zero);
        let _ = flooder.on_round(
            &g,
            true,
            Inbox::direct(&[deliver(&arena, 1, Value::One, &[])]),
        );
        let overheard = flooder.overheard_ids();
        // Node 1's initiation plus the injected default for node 3.
        assert_eq!(
            overheard,
            vec![
                (n(1), PathId::EMPTY, Value::One),
                (n(3), PathId::EMPTY, Value::DEFAULT_FLOOD),
            ]
        );
        assert!(flooder.overheard_exactly(n(1), PathId::EMPTY, Value::One));
        assert!(!flooder.overheard_exactly(n(1), PathId::EMPTY, Value::Zero));
    }

    #[test]
    fn later_receivers_of_a_slot_reuse_its_decode() {
        // Nodes 1 and 3 of the 5-cycle both hear node 2's forward of node
        // 0's value (one transmission, one slot). The second receiver is
        // served from the slot table and must end in the same state as a
        // receiver that decodes the transmission itself.
        let g = generators::cycle(5);
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let start = |me| LedgerFlooder::start(arena.clone(), ledger.clone(), n(me), Value::Zero).0;
        let (mut at1, mut at3) = (start(1), start(3));
        let buffer = [deliver(&arena, 2, Value::One, &[0, 1])];
        let _ = at1.on_round(&g, false, Inbox::indexed(&buffer, &[0]));
        let relay = arena.find(&Path::from_nodes([n(0), n(1), n(2)])).unwrap();
        let cached = ledger
            .borrow()
            .relay_decode_at_slot(at1.channel, 0, n(2), buffer[0].message.path)
            .expect("the first receiver filled the slot");
        assert!(cached.valid);
        assert_eq!(
            (cached.relay, cached.origin, cached.first),
            (relay, n(0), Value::One)
        );
        let out = at3.on_round(&g, false, Inbox::indexed(&buffer, &[0]));
        assert_eq!(
            out,
            vec![Outgoing::Broadcast(FloodMsg {
                value: Value::One,
                path: relay,
            })]
        );
        assert_eq!(at3.relay_ids_from(n(0)), &[relay]);
        assert_eq!(at3.value_along_relay(relay), Some(Value::One));
        // Node 1 is on the relay path, so it recorded the key (rule (ii))
        // but did not receive along it (rule (iii)).
        assert!(at1.relay_ids_from(n(0)).is_empty());
        assert!(at1.overheard_exactly(n(2), buffer[0].message.path, Value::One));
    }

    #[test]
    fn restart_retires_stale_ledger_channels() {
        // Regression (PR 5): a multi-phase algorithm restarts its flood once
        // per candidate fault set — Algorithm 1 at f = 2 on 9 nodes runs 46
        // phases. Every restart opens the next epoch's channel; retirement
        // must keep the ledger's live *and allocated* channel counts bounded
        // instead of growing linearly with the phase count.
        let g = generators::cycle(5);
        let arena = SharedPathArena::new();
        let ledger = SharedFloodLedger::new();
        let (mut flooder, _) =
            LedgerFlooder::start(arena.clone(), ledger.clone(), n(2), Value::One);
        for phase in 0..40 {
            let inbox = [deliver(&arena, 1, Value::One, &[0])];
            let _ = flooder.on_round(&g, true, Inbox::direct(&inbox));
            let _ = flooder.restart(Value::One);
            assert!(
                ledger.borrow().live_channels() <= 2,
                "phase {phase}: {} live channels",
                ledger.borrow().live_channels()
            );
        }
        assert!(
            ledger.borrow().allocated_channels() <= 3,
            "retired channel slots must be recycled: {}",
            ledger.borrow().allocated_channels()
        );
        // The restarted flooder still behaves like a fresh one.
        let (fresh, _) =
            LedgerFlooder::start_on(arena.clone(), ledger.clone(), n(2), Value::One, 0, 41);
        assert_eq!(flooder.own_value(), fresh.own_value());
        assert_eq!(flooder.received_count(), fresh.received_count());
    }

    #[test]
    fn naive_engine_smoke() {
        let g = generators::cycle(5);
        let (mut flooder, out) = NaiveFlooder::start(n(2), Value::Zero);
        assert_eq!(out.len(), 1);
        let forwards = flooder.on_round(
            &g,
            true,
            Inbox::direct(&[Delivery {
                from: n(1),
                message: NaiveFloodMsg {
                    value: Value::One,
                    path: Path::singleton(n(0)),
                },
            }]),
        );
        // The forward of (1, [0,1]) plus injected defaults for both
        // neighbors (neither 1 nor 3 was seen *initiating*).
        assert_eq!(forwards.len(), 3);
        let full = Path::from_nodes([n(0), n(1), n(2)]);
        assert_eq!(flooder.value_along(&full), Some(Value::One));
        assert_eq!(flooder.received_from(n(0)).len(), 1);
        assert_eq!(flooder.own_value(), Some(Value::Zero));
    }
}
