//! Path interning: arena-backed representation of the `Π` path annotations
//! carried by flooded messages.
//!
//! Path-annotated flooding (Algorithms 1–3 of the paper) generates up to
//! `n!`-many simple-path annotations, and every hop of every flood used to
//! clone a `Vec<NodeId>`-backed [`Path`] into map keys. The [`PathArena`]
//! replaces those clones with interning: paths form a prefix trie of
//! `(parent, last)` entries, a path is identified by a copyable `u32`
//! [`PathId`], and `extended` (the paper's `Π‑u` concatenation — the single
//! hottest operation of the flood engine) is a hash-map lookup instead of a
//! `Vec` clone. Memory is bounded by the number of *distinct simple path
//! prefixes* that actually occur in an execution, not by the number of
//! messages carrying them.
//!
//! Each entry memoizes its member set as a [`NodeSet`] bitset, so
//! [`PathArena::contains`] (flooding rule (iii)) and [`PathArena::excludes`]
//! (step (b)/(c) exclusion checks) are word-level bit operations rather than
//! linear scans.
//!
//! # Example
//!
//! ```
//! use lbc_model::{NodeId, NodeSet, Path, PathArena, PathId};
//!
//! let mut arena = PathArena::new();
//! let a = arena.extended(PathId::EMPTY, NodeId::new(0));
//! let ab = arena.extended(a, NodeId::new(1));
//! assert_eq!(arena.len(ab), 2);
//! assert!(arena.contains(ab, NodeId::new(0)));
//! assert_eq!(arena.resolve(ab), Path::from_nodes([NodeId::new(0), NodeId::new(1)]));
//! // Re-extending the same prefix yields the same id: no allocation.
//! assert_eq!(arena.extended(a, NodeId::new(1)), ab);
//! ```

use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use crate::fx::FxHashMap;
use crate::{NodeId, NodeSet, Path};

/// Identifier of an interned path within a [`PathArena`].
///
/// A `PathId` is a copyable `u32`: messages carry it instead of a cloned
/// node vector, and flood-state maps key by it. Ids are only meaningful
/// relative to the arena that created them (one arena per simulated
/// execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathId(u32);

impl PathId {
    /// The empty path `⊥` (interned in every arena as entry 0).
    pub const EMPTY: PathId = PathId(0);

    /// The dense arena index of this id.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a dense index previously obtained via
    /// [`PathId::index`] — used by the flood ledger's bitset state, which
    /// stores path ids as raw bit positions. Only meaningful for indices
    /// that came from the same arena.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        PathId(u32::try_from(index).expect("arena indices fit u32"))
    }

    /// Whether this is the empty path `⊥`.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    parent: PathId,
    /// Last node of the path (unused sentinel value for the empty entry).
    last: NodeId,
    /// First node of the path (propagated from the root of the trie branch).
    first: NodeId,
    len: u32,
    /// Memoized member bitset: every node on the path.
    members: NodeSet,
    /// Whether the path visits no node twice.
    simple: bool,
}

/// A prefix-trie arena interning node paths.
///
/// Paths form a prefix trie of `(parent, last)` entries, so a path is a
/// copyable [`PathId`] and `Π‑u` is one hash lookup instead of a `Vec`
/// clone; each entry memoizes its member set as a [`NodeSet`] bitset.
#[derive(Debug)]
pub struct PathArena {
    entries: Vec<Entry>,
    /// `(parent id, appended node) → child id`.
    children: FxHashMap<(u32, usize), u32>,
    /// Per-entry graph-validity memo (0 = unknown, 1 = valid, 2 = invalid),
    /// written by [`PathArena::set_path_validity`]. Validity is with respect
    /// to the single communication graph of the execution that owns the
    /// arena — the invariant every current caller upholds (one arena per
    /// simulated run) — and it is shared by all nodes, so each distinct
    /// path prefix is validated once per execution, not once per node.
    validity: Vec<u8>,
}

impl Default for PathArena {
    fn default() -> Self {
        PathArena::new()
    }
}

impl PathArena {
    /// Creates an arena containing only the empty path `⊥`.
    #[must_use]
    pub fn new() -> Self {
        PathArena {
            entries: vec![Entry {
                parent: PathId::EMPTY,
                last: NodeId::new(usize::MAX),
                first: NodeId::new(usize::MAX),
                len: 0,
                members: NodeSet::new(),
                simple: true,
            }],
            children: FxHashMap::default(),
            validity: vec![1], // ⊥ is a path of every graph
        }
    }

    #[inline]
    fn entry(&self, id: PathId) -> &Entry {
        &self.entries[id.index()]
    }

    /// Number of interned entries, including the empty path.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Interns `Π‑node`: the path `id` with `node` appended.
    ///
    /// O(1) when the extension was seen before (one hash lookup); on first
    /// sight it allocates a single trie entry whose member bitset is the
    /// parent's plus one bit.
    pub fn extended(&mut self, id: PathId, node: NodeId) -> PathId {
        let key = (id.0, node.index());
        if let Some(&child) = self.children.get(&key) {
            return PathId(child);
        }
        let parent_entry = self.entry(id);
        let first = if parent_entry.len == 0 {
            node
        } else {
            parent_entry.first
        };
        let simple = parent_entry.simple && !parent_entry.members.contains(node);
        let mut members = parent_entry.members.clone();
        members.insert(node);
        let len = parent_entry.len + 1;
        let child = u32::try_from(self.entries.len()).expect("arena overflow: > u32::MAX paths");
        self.entries.push(Entry {
            parent: id,
            last: node,
            first,
            len,
            members,
            simple,
        });
        self.validity.push(0);
        self.children.insert(key, child);
        PathId(child)
    }

    /// Interns a path given as a node slice.
    pub fn intern_slice(&mut self, nodes: &[NodeId]) -> PathId {
        let mut id = PathId::EMPTY;
        for &node in nodes {
            id = self.extended(id, node);
        }
        id
    }

    /// Interns a [`Path`].
    pub fn intern(&mut self, path: &Path) -> PathId {
        self.intern_slice(path.nodes())
    }

    /// Looks up the extension `Π‑node` without interning it; `None` if that
    /// extension was never interned.
    #[must_use]
    pub fn find_child(&self, id: PathId, node: NodeId) -> Option<PathId> {
        self.children
            .get(&(id.0, node.index()))
            .map(|&child| PathId(child))
    }

    /// Looks up a path without interning it; `None` if never interned.
    #[must_use]
    pub fn find_slice(&self, nodes: &[NodeId]) -> Option<PathId> {
        let mut id = PathId::EMPTY;
        for &node in nodes {
            id = PathId(*self.children.get(&(id.0, node.index()))?);
        }
        Some(id)
    }

    /// Looks up a [`Path`] without interning it.
    #[must_use]
    pub fn find(&self, path: &Path) -> Option<PathId> {
        self.find_slice(path.nodes())
    }

    /// Number of nodes on the path.
    #[must_use]
    pub fn len(&self, id: PathId) -> usize {
        self.entry(id).len as usize
    }

    /// Whether `id` is the empty path `⊥`.
    #[must_use]
    pub fn is_empty(&self, id: PathId) -> bool {
        id.is_empty()
    }

    /// First node of the path, if any.
    #[must_use]
    pub fn first(&self, id: PathId) -> Option<NodeId> {
        let entry = self.entry(id);
        (entry.len > 0).then_some(entry.first)
    }

    /// Last node of the path, if any.
    #[must_use]
    pub fn last(&self, id: PathId) -> Option<NodeId> {
        let entry = self.entry(id);
        (entry.len > 0).then_some(entry.last)
    }

    /// The parent prefix and last node, or `None` for the empty path.
    ///
    /// Walking `step` repeatedly visits the path's nodes from last to first.
    #[must_use]
    pub fn step(&self, id: PathId) -> Option<(PathId, NodeId)> {
        let entry = self.entry(id);
        (entry.len > 0).then_some((entry.parent, entry.last))
    }

    /// Whether `node` appears anywhere on the path (flooding rule (iii)).
    /// O(1) via the memoized member bitset.
    #[inline]
    #[must_use]
    pub fn contains(&self, id: PathId, node: NodeId) -> bool {
        self.entry(id).members.contains(node)
    }

    /// The memoized member set of the path.
    #[must_use]
    pub fn members(&self, id: PathId) -> &NodeSet {
        &self.entry(id).members
    }

    /// Whether the path visits no node more than once.
    #[must_use]
    pub fn is_simple(&self, id: PathId) -> bool {
        self.entry(id).simple
    }

    /// Whether the path *excludes* the node set `x`: none of its internal
    /// nodes belongs to `x` (endpoints may). Word-level bitset check against
    /// the memoized member set for simple paths; non-simple paths (where an
    /// endpoint value may also occur internally) fall back to an exact walk.
    #[must_use]
    pub fn excludes(&self, id: PathId, x: &NodeSet) -> bool {
        let entry = self.entry(id);
        if entry.len <= 2 {
            return true;
        }
        if !entry.simple {
            // Internal positions are everything but the first and last hop.
            let mut cursor = entry.parent; // skip the last node
            while let Some((parent, node)) = self.step(cursor) {
                if parent.is_empty() {
                    break; // `node` is the first node: an endpoint
                }
                if x.contains(node) {
                    return false;
                }
                cursor = parent;
            }
            return true;
        }
        let members = entry.members.as_words();
        let excluded = x.as_words();
        let mut overlap_within_endpoints = true;
        for (word_index, (m, e)) in members.iter().zip(excluded.iter()).enumerate() {
            let mut hits = m & e;
            while hits != 0 {
                let bit = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let node = NodeId::new(word_index * 64 + bit);
                if node != entry.first && node != entry.last {
                    overlap_within_endpoints = false;
                }
            }
            if !overlap_within_endpoints {
                return false;
            }
        }
        true
    }

    /// The memoized graph-validity of this entry, if recorded: whether the
    /// path is a path of the execution's communication graph (see the
    /// `validity` field for the single-graph invariant).
    #[inline]
    #[must_use]
    pub fn path_validity(&self, id: PathId) -> Option<bool> {
        match self.validity[id.index()] {
            1 => Some(true),
            2 => Some(false),
            _ => None,
        }
    }

    /// Records the graph-validity of this entry.
    #[inline]
    pub fn set_path_validity(&mut self, id: PathId, valid: bool) {
        self.validity[id.index()] = if valid { 1 } else { 2 };
    }

    /// Whether the *extended* path `id‑w` (for any `w` not on `id`) would
    /// exclude `x`: no node of `id` except its first may belong to `x`.
    ///
    /// This is the exclusion test the flood engine runs on stored relay
    /// paths — the full received path is `relay‑me`, whose internal nodes
    /// are exactly the relay's nodes minus the relay's first node.
    #[must_use]
    pub fn tail_excludes(&self, id: PathId, x: &NodeSet) -> bool {
        let entry = self.entry(id);
        if entry.len <= 1 {
            return true;
        }
        if !entry.simple {
            // Exact walk: every position except position 0 must avoid `x`.
            let mut cursor = id;
            while let Some((parent, node)) = self.step(cursor) {
                if parent.is_empty() {
                    break; // position 0: the exempt head endpoint
                }
                if x.contains(node) {
                    return false;
                }
                cursor = parent;
            }
            return true;
        }
        let members = entry.members.as_words();
        let excluded = x.as_words();
        for (word_index, (m, e)) in members.iter().zip(excluded.iter()).enumerate() {
            let mut hits = m & e;
            while hits != 0 {
                let bit = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                if NodeId::new(word_index * 64 + bit) != entry.first {
                    return false;
                }
            }
        }
        true
    }

    /// Compares two interned paths by their node sequences in forward
    /// lexicographic order (the order `Path`'s derived `Ord` uses), without
    /// materializing either sequence.
    ///
    /// The trie stores parent pointers, i.e. sequences in reverse; forward
    /// comparison recurses to the common-length prefixes first and breaks
    /// ties by length. Cost is `O(len)` per call with no allocation — this is
    /// what lets `overheard_ids` sort without building a `Vec<NodeId>` key
    /// per entry.
    #[must_use]
    pub fn cmp_nodes(&self, a: PathId, b: PathId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let (len_a, len_b) = (self.len(a), self.len(b));
        let common = len_a.min(len_b);
        let mut ta = a;
        for _ in 0..len_a - common {
            ta = self.entry(ta).parent;
        }
        let mut tb = b;
        for _ in 0..len_b - common {
            tb = self.entry(tb).parent;
        }
        self.cmp_equal_len(ta, tb).then(len_a.cmp(&len_b))
    }

    /// Forward lexicographic comparison of two paths of equal length.
    /// Prefix sharing makes equal ids the recursion cutoff: two distinct ids
    /// of the same length differ somewhere, and the deepest shared prefix is
    /// literally the same trie entry.
    fn cmp_equal_len(&self, a: PathId, b: PathId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let entry_a = self.entry(a);
        let entry_b = self.entry(b);
        self.cmp_equal_len(entry_a.parent, entry_b.parent)
            .then(entry_a.last.cmp(&entry_b.last))
    }

    /// Writes the path's nodes, in order, into `out` (clearing it first).
    pub fn write_nodes(&self, id: PathId, out: &mut Vec<NodeId>) {
        out.clear();
        let mut cursor = id;
        while let Some((parent, last)) = self.step(cursor) {
            out.push(last);
            cursor = parent;
        }
        out.reverse();
    }

    /// The path's nodes, in order.
    #[must_use]
    pub fn nodes(&self, id: PathId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len(id));
        self.write_nodes(id, &mut out);
        out
    }

    /// Resolves the id back into an owned [`Path`].
    #[must_use]
    pub fn resolve(&self, id: PathId) -> Path {
        Path::from_nodes(self.nodes(id))
    }
}

/// A clonable handle to a [`PathArena`] shared by every node of a simulated
/// execution.
///
/// The simulator owns one `SharedPathArena` per run and hands it to protocol
/// hooks through the node context; message `PathId`s are resolved against it
/// on every side of a link. Interior mutability (`Rc<RefCell<…>>`) is used
/// because interning happens while many flooders hold the handle; the
/// simulator is single-threaded by construction.
#[derive(Debug, Clone, Default)]
pub struct SharedPathArena {
    inner: Rc<RefCell<PathArena>>,
}

impl SharedPathArena {
    /// Creates a fresh arena containing only the empty path.
    #[must_use]
    pub fn new() -> Self {
        SharedPathArena::default()
    }

    /// Immutable access to the underlying arena.
    ///
    /// # Panics
    ///
    /// Panics if the arena is currently mutably borrowed.
    #[must_use]
    pub fn borrow(&self) -> Ref<'_, PathArena> {
        self.inner.borrow()
    }

    /// Mutable access to the underlying arena.
    ///
    /// # Panics
    ///
    /// Panics if the arena is currently borrowed.
    #[must_use]
    pub fn borrow_mut(&self) -> RefMut<'_, PathArena> {
        self.inner.borrow_mut()
    }

    /// Interns `Π‑node`. See [`PathArena::extended`].
    pub fn extended(&self, id: PathId, node: NodeId) -> PathId {
        self.inner.borrow_mut().extended(id, node)
    }

    /// Interns a [`Path`]. See [`PathArena::intern`].
    pub fn intern(&self, path: &Path) -> PathId {
        self.inner.borrow_mut().intern(path)
    }

    /// Looks up a [`Path`] without interning. See [`PathArena::find`].
    #[must_use]
    pub fn find(&self, path: &Path) -> Option<PathId> {
        self.inner.borrow().find(path)
    }

    /// Resolves an id into an owned [`Path`]. See [`PathArena::resolve`].
    #[must_use]
    pub fn resolve(&self, id: PathId) -> Path {
        self.inner.borrow().resolve(id)
    }

    /// Path length. See [`PathArena::len`].
    #[must_use]
    pub fn len(&self, id: PathId) -> usize {
        self.inner.borrow().len(id)
    }

    /// First node. See [`PathArena::first`].
    #[must_use]
    pub fn first(&self, id: PathId) -> Option<NodeId> {
        self.inner.borrow().first(id)
    }

    /// Last node. See [`PathArena::last`].
    #[must_use]
    pub fn last(&self, id: PathId) -> Option<NodeId> {
        self.inner.borrow().last(id)
    }

    /// Membership test. See [`PathArena::contains`].
    #[must_use]
    pub fn contains(&self, id: PathId, node: NodeId) -> bool {
        self.inner.borrow().contains(id, node)
    }

    /// Exclusion test. See [`PathArena::excludes`].
    #[must_use]
    pub fn excludes(&self, id: PathId, x: &NodeSet) -> bool {
        self.inner.borrow().excludes(id, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn p(ids: &[usize]) -> Path {
        Path::from_nodes(ids.iter().map(|&i| n(i)))
    }

    #[test]
    fn empty_path_facts() {
        let arena = PathArena::new();
        assert_eq!(arena.len(PathId::EMPTY), 0);
        assert!(arena.is_empty(PathId::EMPTY));
        assert_eq!(arena.first(PathId::EMPTY), None);
        assert_eq!(arena.last(PathId::EMPTY), None);
        assert_eq!(arena.step(PathId::EMPTY), None);
        assert!(arena.is_simple(PathId::EMPTY));
        assert_eq!(arena.resolve(PathId::EMPTY), Path::empty());
        assert_eq!(arena.entry_count(), 1);
    }

    #[test]
    fn intern_resolve_roundtrip_preserves_order() {
        let mut arena = PathArena::new();
        let path = p(&[3, 1, 4, 1, 5]);
        let id = arena.intern(&path);
        assert_eq!(arena.resolve(id), path);
        assert_eq!(arena.len(id), 5);
        assert_eq!(arena.first(id), Some(n(3)));
        assert_eq!(arena.last(id), Some(n(5)));
        assert!(!arena.is_simple(id)); // node 1 repeats
    }

    #[test]
    fn interning_is_idempotent_and_shares_prefixes() {
        let mut arena = PathArena::new();
        let a = arena.intern(&p(&[0, 1, 2]));
        let b = arena.intern(&p(&[0, 1, 2]));
        assert_eq!(a, b);
        let before = arena.entry_count();
        // A sibling path shares the [0, 1] prefix: exactly one new entry.
        let c = arena.intern(&p(&[0, 1, 3]));
        assert_ne!(a, c);
        assert_eq!(arena.entry_count(), before + 1);
    }

    #[test]
    fn find_does_not_allocate() {
        let mut arena = PathArena::new();
        let id = arena.intern(&p(&[2, 4]));
        let before = arena.entry_count();
        assert_eq!(arena.find(&p(&[2, 4])), Some(id));
        assert_eq!(arena.find(&p(&[2, 5])), None);
        assert_eq!(arena.find(&Path::empty()), Some(PathId::EMPTY));
        assert_eq!(arena.entry_count(), before);
    }

    #[test]
    fn contains_uses_memoized_members() {
        let mut arena = PathArena::new();
        let id = arena.intern(&p(&[0, 7, 130]));
        assert!(arena.contains(id, n(0)));
        assert!(arena.contains(id, n(7)));
        assert!(arena.contains(id, n(130)));
        assert!(!arena.contains(id, n(1)));
        assert!(!arena.contains(PathId::EMPTY, n(0)));
        assert_eq!(arena.members(id).len(), 3);
    }

    #[test]
    fn excludes_ignores_endpoints() {
        let mut arena = PathArena::new();
        let id = arena.intern(&p(&[0, 1, 2, 3]));
        let ends: NodeSet = [n(0), n(3)].into_iter().collect();
        let mid: NodeSet = [n(2)].into_iter().collect();
        assert!(arena.excludes(id, &ends));
        assert!(!arena.excludes(id, &mid));
        // Short paths exclude everything.
        let short = arena.intern(&p(&[0, 1]));
        assert!(arena.excludes(short, &NodeSet::full(8)));
        assert!(arena.excludes(PathId::EMPTY, &NodeSet::full(8)));
    }

    #[test]
    fn excludes_agrees_with_path_excludes() {
        let mut arena = PathArena::new();
        for nodes in [&[0usize, 1, 2][..], &[5, 64, 2, 130], &[1], &[], &[9, 9, 9]] {
            let path = p(nodes);
            let id = arena.intern(&path);
            for excluded in [&[0usize][..], &[1, 64], &[130], &[2, 9], &[]] {
                let x: NodeSet = excluded.iter().map(|&i| n(i)).collect();
                assert_eq!(
                    arena.excludes(id, &x),
                    path.excludes(&x),
                    "path {path} excluding {x}"
                );
            }
        }
    }

    #[test]
    fn find_child_is_a_read_only_extended() {
        let mut arena = PathArena::new();
        let a = arena.extended(PathId::EMPTY, n(1));
        let ab = arena.extended(a, n(2));
        let before = arena.entry_count();
        assert_eq!(arena.find_child(a, n(2)), Some(ab));
        assert_eq!(arena.find_child(a, n(3)), None);
        assert_eq!(arena.find_child(PathId::EMPTY, n(1)), Some(a));
        assert_eq!(arena.entry_count(), before);
    }

    #[test]
    fn cmp_nodes_matches_resolved_path_order() {
        let mut arena = PathArena::new();
        let samples = [
            &[][..],
            &[0],
            &[1],
            &[0, 1],
            &[0, 2],
            &[0, 1, 2],
            &[0, 1, 3],
            &[2, 0],
            &[2, 0, 1, 3],
            &[9, 9, 9],
        ];
        let ids: Vec<PathId> = samples.iter().map(|s| arena.intern(&p(s))).collect();
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                assert_eq!(
                    arena.cmp_nodes(a, b),
                    arena.resolve(a).cmp(&arena.resolve(b)),
                    "cmp_nodes({:?}, {:?})",
                    samples[i],
                    samples[j]
                );
            }
        }
    }

    #[test]
    fn extended_walks_the_trie() {
        let mut arena = PathArena::new();
        let a = arena.extended(PathId::EMPTY, n(4));
        let ab = arena.extended(a, n(2));
        assert_eq!(arena.step(ab), Some((a, n(2))));
        assert_eq!(arena.step(a), Some((PathId::EMPTY, n(4))));
        assert_eq!(arena.nodes(ab), vec![n(4), n(2)]);
    }

    #[test]
    fn shared_handle_interns_into_one_arena() {
        let shared = SharedPathArena::new();
        let clone = shared.clone();
        let id = shared.intern(&p(&[1, 2]));
        assert_eq!(clone.find(&p(&[1, 2])), Some(id));
        assert_eq!(clone.resolve(id), p(&[1, 2]));
        let ext = clone.extended(id, n(3));
        assert_eq!(shared.len(ext), 3);
        assert_eq!(shared.first(ext), Some(n(1)));
        assert_eq!(shared.last(ext), Some(n(3)));
        assert!(shared.contains(ext, n(2)));
        assert!(shared.excludes(ext, &NodeSet::singleton(n(1))));
    }
}
