//! Path finding: BFS paths, paths excluding a node set, maximum families of
//! node-disjoint `uv`-paths and `Uv`-paths (Menger's theorem made
//! executable), and the disjoint-family test of Definition C.1 over an
//! explicit list of received paths.
//!
//! Terminology follows Section 3 of the paper:
//!
//! * a path **excludes** a set `X` if none of its *internal* nodes is in `X`
//!   (endpoints may be in `X`);
//! * two `uv`-paths are node-disjoint if they share no internal node;
//! * two `Uv`-paths are node-disjoint if they share no node other than the
//!   common endpoint `v` (in particular their `U`-side endpoints differ).

use std::collections::VecDeque;

use lbc_model::{NodeId, NodeSet, Path};

use crate::maxflow::FlowNetwork;
use crate::Graph;

/// Returns a shortest `uv`-path (by hop count), if one exists.
///
/// The path for `u == v` is the single-node path `[u]`.
#[must_use]
pub fn shortest_path(graph: &Graph, u: NodeId, v: NodeId) -> Option<Path> {
    path_excluding(graph, u, v, &NodeSet::new())
}

/// Returns a `uv`-path that *excludes* `exclude` (no internal node belongs to
/// `exclude`; the endpoints `u`, `v` may), if one exists. Shortest such path
/// by hop count.
///
/// This is the path `P_uv` selected in step (b) of Algorithms 1 and 3.
#[must_use]
pub fn path_excluding(graph: &Graph, u: NodeId, v: NodeId, exclude: &NodeSet) -> Option<Path> {
    if !graph.contains_node(u) || !graph.contains_node(v) {
        return None;
    }
    if u == v {
        return Some(Path::singleton(u));
    }
    if graph.has_edge(u, v) {
        return Some(Path::from_nodes([u, v]));
    }
    // BFS from u where every node except u and v must avoid `exclude`.
    let mut parent: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut visited = NodeSet::singleton(u);
    let mut queue = VecDeque::new();
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        for y in graph.neighbors(x) {
            if visited.contains(y) {
                continue;
            }
            if y == v {
                // Reconstruct u … x, then append v.
                let mut rev = vec![v, x];
                let mut cur = x;
                while let Some(p) = parent[cur.index()] {
                    rev.push(p);
                    cur = p;
                }
                rev.reverse();
                return Some(Path::from_nodes(rev));
            }
            if exclude.contains(y) {
                continue;
            }
            visited.insert(y);
            parent[y.index()] = Some(x);
            queue.push_back(y);
        }
    }
    None
}

/// The maximum number of pairwise node-disjoint (internally disjoint)
/// `uv`-paths, capped at `limit`.
///
/// If `u` and `v` are adjacent, the direct edge counts as one path.
#[must_use]
pub fn max_disjoint_uv_paths(graph: &Graph, u: NodeId, v: NodeId, limit: usize) -> usize {
    disjoint_uv_paths_excluding(graph, u, v, &NodeSet::new(), limit).len()
}

/// Returns a maximum family (capped at `limit`) of pairwise node-disjoint
/// `uv`-paths, each of which excludes `exclude` (no internal node in
/// `exclude`).
///
/// The returned paths all start at `u` and end at `v`.
#[must_use]
pub fn disjoint_uv_paths_excluding(
    graph: &Graph,
    u: NodeId,
    v: NodeId,
    exclude: &NodeSet,
    limit: usize,
) -> Vec<Path> {
    if u == v || !graph.contains_node(u) || !graph.contains_node(v) || limit == 0 {
        return Vec::new();
    }
    let n = graph.node_count();
    // Split graph: w_in = 2w, w_out = 2w + 1.
    let mut net = FlowNetwork::new(2 * n);
    let big = n as i64 + 1;
    let internal_forbidden = |w: NodeId| w != u && w != v && exclude.contains(w);
    for w in graph.nodes() {
        if internal_forbidden(w) {
            continue;
        }
        let capacity = if w == u || w == v { big } else { 1 };
        net.add_edge(2 * w.index(), 2 * w.index() + 1, capacity);
    }
    for (a, b) in graph.edges() {
        if internal_forbidden(a) || internal_forbidden(b) {
            continue;
        }
        net.add_edge(2 * a.index() + 1, 2 * b.index(), 1);
        net.add_edge(2 * b.index() + 1, 2 * a.index(), 1);
    }
    let source = 2 * u.index() + 1;
    let sink = 2 * v.index();
    let cap = i64::try_from(limit).unwrap_or(i64::MAX);
    let flow = net.max_flow(source, sink, cap);
    if flow == 0 {
        return Vec::new();
    }
    let raw = net.decompose_paths(source, sink);
    raw.into_iter()
        .map(|split_path| collapse_split_path(&split_path, None))
        .map(Path::from_nodes)
        .collect()
}

/// Returns a maximum family (capped at `limit`) of pairwise node-disjoint
/// `Uv`-paths from the source set `sources` to `v`, each of which excludes
/// `exclude`.
///
/// Following the paper's definition, two `Uv`-paths share no node except the
/// common endpoint `v`; in particular each source node is the endpoint of at
/// most one returned path. Source nodes that belong to `exclude` may still be
/// *endpoints* (this is exactly the situation in Lemma 5.5, where the nodes
/// of `A_v ∩ F` are chosen as path endpoints) but may not appear as internal
/// nodes of any path.
#[must_use]
pub fn disjoint_set_to_node_paths(
    graph: &Graph,
    sources: &NodeSet,
    v: NodeId,
    exclude: &NodeSet,
    limit: usize,
) -> Vec<Path> {
    if !graph.contains_node(v) || sources.is_empty() || limit == 0 {
        return Vec::new();
    }
    let n = graph.node_count();
    let mut net = FlowNetwork::new(2 * n + 1);
    let super_source = 2 * n;
    let big = n as i64 + 1;

    // A node is fully removed if it is excluded and is neither a source nor v.
    let removed = |w: NodeId| w != v && !sources.contains(w) && exclude.contains(w);
    // A node may serve only as a path endpoint (never internal) if it is an
    // excluded source.
    let endpoint_only = |w: NodeId| sources.contains(w) && exclude.contains(w);

    for w in graph.nodes() {
        if removed(w) {
            continue;
        }
        let capacity = if w == v { big } else { 1 };
        net.add_edge(2 * w.index(), 2 * w.index() + 1, capacity);
    }
    for (a, b) in graph.edges() {
        if removed(a) || removed(b) {
            continue;
        }
        // A node that is only allowed to be a path endpoint (an excluded
        // source) may be *entered* only from the super source; it may still
        // be *left* through its outgoing arcs.
        if !endpoint_only(b) {
            net.add_edge(2 * a.index() + 1, 2 * b.index(), 1);
        }
        if !endpoint_only(a) {
            net.add_edge(2 * b.index() + 1, 2 * a.index(), 1);
        }
    }
    for s in sources.iter() {
        if s == v || !graph.contains_node(s) {
            continue;
        }
        net.add_edge(super_source, 2 * s.index(), 1);
    }
    let sink = 2 * v.index();
    let cap = i64::try_from(limit).unwrap_or(i64::MAX);
    let flow = net.max_flow(super_source, sink, cap);
    if flow == 0 {
        return Vec::new();
    }
    let raw = net.decompose_paths(super_source, sink);
    raw.into_iter()
        .map(|split_path| collapse_split_path(&split_path, Some(super_source)))
        .map(Path::from_nodes)
        .collect()
}

/// Collapses a path through the split graph (alternating `w_in`, `w_out`
/// indices, optionally starting at a super source) back into graph nodes.
fn collapse_split_path(split_path: &[usize], super_source: Option<usize>) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for &idx in split_path {
        if Some(idx) == super_source {
            continue;
        }
        let node = NodeId::new(idx / 2);
        if nodes.last() != Some(&node) {
            nodes.push(node);
        }
    }
    nodes
}

/// Enumerates **all** simple `uv`-paths (including the trivial direct edge if
/// present). Exponential in general; intended for small graphs and tests.
#[must_use]
pub fn all_simple_paths(graph: &Graph, u: NodeId, v: NodeId) -> Vec<Path> {
    let mut result = Vec::new();
    if !graph.contains_node(u) || !graph.contains_node(v) {
        return result;
    }
    let mut stack = vec![u];
    let mut on_path = NodeSet::singleton(u);
    fn recurse(
        graph: &Graph,
        v: NodeId,
        stack: &mut Vec<NodeId>,
        on_path: &mut NodeSet,
        result: &mut Vec<Path>,
    ) {
        let current = *stack.last().expect("stack never empty during recursion");
        if current == v {
            result.push(Path::from_nodes(stack.iter().copied()));
            return;
        }
        for next in graph.neighbors(current) {
            if on_path.contains(next) {
                continue;
            }
            stack.push(next);
            on_path.insert(next);
            recurse(graph, v, stack, on_path, result);
            stack.pop();
            on_path.remove(next);
        }
    }
    if u == v {
        return vec![Path::singleton(u)];
    }
    recurse(graph, v, &mut stack, &mut on_path, &mut result);
    result
}

/// Whether `k` of the node sets `sets` are pairwise disjoint.
///
/// This is the "received along `f + 1` internally disjoint `uv`-paths"
/// test of Definition C.1 (Algorithm 2 and the asynchronous algorithm),
/// with each candidate path given by its set of internal nodes: two
/// `uv`-paths are internally disjoint exactly when those sets are. The
/// answer is exact and comes in three steps:
///
/// 1. An empty set (the direct edge `[u, v]`) is disjoint from every set,
///    another empty one included, so each counts towards `k` outright.
/// 2. A greedy first-fit pass over the other sets, smallest first, answers
///    most yes-instances without any search.
/// 3. Otherwise a backtracking search runs over the inclusion-minimal sets
///    only. No family is lost: swapping a member for a minimal set inside
///    it keeps the family disjoint. Forged copies that all pass through one
///    faulty node collapse to a few minimal sets, all holding that node.
#[must_use]
pub fn has_disjoint_family(mut sets: Vec<NodeSet>, k: usize) -> bool {
    let total = sets.len();
    sets.retain(|set| !set.is_empty());
    let need = k.saturating_sub(total - sets.len());
    if need == 0 {
        return true;
    }
    if sets.len() < need {
        return false;
    }
    sets.sort_unstable_by_key(NodeSet::len);
    let width = sets
        .iter()
        .map(|set| set.as_words().len())
        .max()
        .unwrap_or(0);
    let mut union = vec![0u64; width];
    let mut picked = 0;
    for set in &sets {
        if disjoint(&union, set.as_words()) {
            or_into(&mut union, set.as_words());
            picked += 1;
            if picked == need {
                return true;
            }
        }
    }
    // Sorted by size, a set's proper subsets come before it, so a set is
    // minimal iff no set kept so far lies inside it (an equal copy counts:
    // equal non-empty sets conflict, so one copy is enough).
    let mut minimal: Vec<&[u64]> = Vec::new();
    for set in &sets {
        if !minimal.iter().any(|kept| subset(kept, set.as_words())) {
            minimal.push(set.as_words());
        }
    }
    union.fill(0);
    extend_family(&minimal, need, &mut union)
}

/// Backtracking step of [`has_disjoint_family`]: whether `need` sets of
/// `sets`, pairwise disjoint and disjoint from `union`, exist.
fn extend_family(sets: &[&[u64]], need: usize, union: &mut [u64]) -> bool {
    if need == 0 {
        return true;
    }
    for (index, set) in sets.iter().enumerate() {
        if sets.len() - index < need {
            return false;
        }
        if disjoint(union, set) {
            or_into(union, set);
            if extend_family(&sets[index + 1..], need - 1, union) {
                return true;
            }
            // `set` was disjoint from `union`, so this undoes the union.
            for (word, bits) in union.iter_mut().zip(set.iter()) {
                *word &= !bits;
            }
        }
    }
    false
}

fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// Whether `a ⊆ b`, for canonical (trailing-zero-free) words.
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.len() <= b.len() && a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

fn or_into(union: &mut [u64], set: &[u64]) {
    for (word, bits) in union.iter_mut().zip(set) {
        *word |= bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn set(ids: &[usize]) -> NodeSet {
        ids.iter().map(|&i| n(i)).collect()
    }

    #[test]
    fn shortest_path_on_cycle() {
        let g = generators::cycle(5);
        let p = shortest_path(&g, n(0), n(2)).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(1), n(2)]);
        assert_eq!(
            shortest_path(&g, n(3), n(3)).unwrap(),
            Path::singleton(n(3))
        );
    }

    #[test]
    fn path_excluding_avoids_internal_nodes_only() {
        let g = generators::cycle(5);
        // Excluding node 1 forces the path 0-4-3-2.
        let p = path_excluding(&g, n(0), n(2), &set(&[1])).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(4), n(3), n(2)]);
        // Excluding an endpoint does not block the path.
        let p = path_excluding(&g, n(0), n(1), &set(&[0, 1])).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(1)]);
        // Excluding both internal routes disconnects.
        assert!(path_excluding(&g, n(0), n(2), &set(&[1, 3])).is_none());
        assert!(path_excluding(&g, n(0), n(2), &set(&[1, 4])).is_none());
    }

    #[test]
    fn disjoint_paths_on_cycle_are_two() {
        let g = generators::cycle(5);
        let paths = disjoint_uv_paths_excluding(&g, n(0), n(2), &NodeSet::new(), usize::MAX);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert!(g.is_path(p));
            assert_eq!(p.first(), Some(n(0)));
            assert_eq!(p.last(), Some(n(2)));
        }
        assert!(paths[0].internally_disjoint(&paths[1]));
    }

    #[test]
    fn disjoint_paths_on_complete_graph() {
        let g = generators::complete(5);
        assert_eq!(max_disjoint_uv_paths(&g, n(0), n(4), usize::MAX), 4);
        // Limit caps the number of returned paths.
        assert_eq!(
            disjoint_uv_paths_excluding(&g, n(0), n(4), &NodeSet::new(), 2).len(),
            2
        );
    }

    #[test]
    fn adjacent_nodes_count_the_direct_edge() {
        let g = generators::cycle(4);
        let paths = disjoint_uv_paths_excluding(&g, n(0), n(1), &NodeSet::new(), usize::MAX);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.len() == 2));
    }

    #[test]
    fn exclusion_reduces_disjoint_path_count() {
        let g = generators::complete(5);
        // Internal nodes 1, 2 are forbidden: only the direct edge 0-4 and the
        // path through 3 remain between 0 and 4.
        let paths = disjoint_uv_paths_excluding(&g, n(0), n(4), &set(&[1, 2]), usize::MAX);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert!(p.excludes(&set(&[1, 2])));
        }
    }

    #[test]
    fn set_to_node_disjoint_paths_on_cycle() {
        let g = generators::cycle(5);
        // U = {1, 4} are the neighbors of 0; two disjoint Uv-paths to v=0.
        let u = set(&[1, 4]);
        let paths = disjoint_set_to_node_paths(&g, &u, n(0), &NodeSet::new(), usize::MAX);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert!(g.is_path(p));
            assert!(u.contains(p.first().unwrap()));
            assert_eq!(p.last(), Some(n(0)));
        }
        assert!(paths[0].disjoint_except_endpoint(&paths[1], n(0)));
    }

    #[test]
    fn set_to_node_paths_respect_exclusion_of_internal_nodes() {
        let g = generators::complete(6);
        let sources = set(&[1, 2, 3]);
        let exclude = set(&[4]);
        let paths = disjoint_set_to_node_paths(&g, &sources, n(0), &exclude, usize::MAX);
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert!(p.excludes(&exclude));
            assert!(!p.internal_nodes().any(|w| w == n(4)));
        }
    }

    #[test]
    fn excluded_sources_may_be_endpoints_but_not_internal() {
        // Lemma 5.5 situation: a source in F is allowed as an endpoint.
        let g = generators::complete(5);
        let sources = set(&[1, 2]);
        let exclude = set(&[1]); // node 1 is an excluded source
        let paths = disjoint_set_to_node_paths(&g, &sources, n(0), &exclude, usize::MAX);
        assert_eq!(paths.len(), 2);
        let endpoints: NodeSet = paths.iter().map(|p| p.first().unwrap()).collect();
        assert_eq!(endpoints, sources);
        for p in &paths {
            assert!(!p.internal_nodes().any(|w| w == n(1)));
        }
    }

    #[test]
    fn menger_on_circulant_c9_1_2() {
        // C9(1,2) is 4-connected: every pair has 4 disjoint paths.
        let g = generators::circulant(9, &[1, 2]);
        for u in g.nodes() {
            for v in g.nodes() {
                if u < v {
                    assert!(max_disjoint_uv_paths(&g, u, v, usize::MAX) >= 4);
                }
            }
        }
    }

    #[test]
    fn all_simple_paths_on_cycle() {
        let g = generators::cycle(5);
        let paths = all_simple_paths(&g, n(0), n(2));
        // Exactly two simple paths on a cycle.
        assert_eq!(paths.len(), 2);
        let lens: Vec<usize> = {
            let mut l: Vec<usize> = paths.iter().map(Path::len).collect();
            l.sort_unstable();
            l
        };
        assert_eq!(lens, vec![3, 4]);
    }

    #[test]
    fn all_simple_paths_counts_on_complete_graph() {
        let g = generators::complete(5);
        // Simple paths between two fixed nodes of K5: 1 + 3 + 3·2 + 3·2·1 = 16.
        assert_eq!(all_simple_paths(&g, n(0), n(4)).len(), 16);
    }

    /// The internal node sets of `candidates`, the input of
    /// [`has_disjoint_family`].
    fn internal_sets(candidates: &[Path]) -> Vec<NodeSet> {
        candidates
            .iter()
            .map(|path| path.internal_nodes().collect())
            .collect()
    }

    #[test]
    fn disjoint_family_on_uv_paths() {
        // uv-paths share both endpoints; only internal disjointness matters.
        let g = generators::cycle(5);
        let candidates = internal_sets(&all_simple_paths(&g, n(0), n(2)));
        assert!(has_disjoint_family(candidates.clone(), 2));
        assert!(!has_disjoint_family(candidates.clone(), 3));
        assert!(has_disjoint_family(candidates, 0));
        assert!(has_disjoint_family(Vec::new(), 0));
        assert!(!has_disjoint_family(Vec::new(), 1));
    }

    #[test]
    fn empty_sets_count_without_limit() {
        // Every empty set is a direct edge, disjoint even from another one.
        assert!(has_disjoint_family(vec![NodeSet::new(); 4], 4));
        assert!(!has_disjoint_family(vec![NodeSet::new(); 4], 5));
        let mut sets = vec![NodeSet::new(); 3];
        sets.push(set(&[1, 2]));
        assert!(has_disjoint_family(sets, 4));
    }

    #[test]
    fn equal_non_empty_sets_conflict() {
        assert!(!has_disjoint_family(vec![set(&[3]); 5], 2));
        assert!(!has_disjoint_family(vec![set(&[1, 2]), set(&[1, 2])], 2));
        assert!(has_disjoint_family(
            vec![set(&[3]), set(&[3]), NodeSet::new()],
            2
        ));
    }

    #[test]
    fn pairwise_intersecting_sets_without_a_common_node() {
        // {a,b}, {b,c}, {a,c}: every pair meets and no node is in all three,
        // so even the minimal-set search must answer no for k = 2.
        let sets = vec![set(&[1, 2]), set(&[2, 3]), set(&[1, 3])];
        assert!(has_disjoint_family(sets.clone(), 1));
        assert!(!has_disjoint_family(sets, 2));
    }

    #[test]
    fn supersets_of_chosen_sets_are_never_needed() {
        // Greedy takes {2, 3} first and then finds nothing disjoint from it.
        // The search drops {3, 4, 5, 8}, a superset of {3, 4, 5}, and finds
        // {1, 2, 9}, {3, 4, 5} in place of {1, 2, 9}, {3, 4, 5, 8}.
        let sets = vec![
            set(&[3, 4, 5, 8]),
            set(&[1, 2, 9]),
            set(&[2, 3]),
            set(&[3, 4, 5]),
        ];
        assert!(has_disjoint_family(sets.clone(), 2));
        assert!(!has_disjoint_family(sets, 3));
        let nested = vec![set(&[4]), set(&[4, 5]), set(&[4, 5, 6])];
        assert!(!has_disjoint_family(nested, 2));
    }

    #[test]
    fn greedy_miss_is_recovered_by_the_search() {
        // Smallest first, greedy picks {2, 3}, which blocks both {1, 2, 5}
        // and {3, 4, 6}; those two are the answer for k = 2.
        let mut sets = vec![set(&[1, 2, 5]), set(&[3, 4, 6]), set(&[2, 3])];
        assert!(has_disjoint_family(sets.clone(), 2));
        assert!(!has_disjoint_family(sets.clone(), 3));
        // The direct edge joins that family; it must not stand in for it.
        sets.push(NodeSet::new());
        assert!(has_disjoint_family(sets.clone(), 3));
        assert!(!has_disjoint_family(sets, 4));
    }

    #[test]
    fn sets_above_64_nodes_use_every_word() {
        let far = set(&[70]);
        let both = set(&[3, 70]);
        assert!(!has_disjoint_family(vec![far.clone(), both.clone()], 2));
        assert!(has_disjoint_family(vec![far, set(&[3]), both], 2));
    }
}
