//! Property-based tests for the graph substrate: Menger-style consistency
//! between connectivity, disjoint paths, and cuts on randomly generated
//! graphs.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use lbc_graph::{connectivity, cuts, generators, paths, Graph};
use lbc_model::{NodeId, NodeSet, Path};

/// A random connected-ish graph: G(n, p) seeded deterministically.
fn random_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::random_gnp(n, p, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Vertex connectivity never exceeds the minimum degree, and
    /// `is_k_connected` agrees with the computed connectivity.
    #[test]
    fn connectivity_vs_min_degree(n in 4usize..10, p in 0.3f64..0.9, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        let kappa = connectivity::vertex_connectivity(&g);
        if g.is_connected() && n >= 2 {
            prop_assert!(kappa <= g.min_degree());
        }
        prop_assert!(connectivity::is_k_connected(&g, kappa) || kappa == 0);
        prop_assert!(!connectivity::is_k_connected(&g, kappa + 1) || kappa + 1 >= n);
    }

    /// Menger: between any two distinct nodes of a connected graph there are
    /// at least `κ(G)` internally disjoint paths, and the returned family is
    /// genuinely disjoint and genuinely made of graph paths.
    #[test]
    fn menger_disjoint_path_family(n in 4usize..9, p in 0.4f64..0.9, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        prop_assume!(g.is_connected());
        let kappa = connectivity::vertex_connectivity(&g);
        let u = NodeId::new(0);
        let v = NodeId::new(n - 1);
        let family = paths::disjoint_uv_paths_excluding(&g, u, v, &NodeSet::new(), usize::MAX);
        prop_assert!(family.len() >= kappa);
        for path in &family {
            prop_assert!(g.is_path(path));
            prop_assert_eq!(path.first(), Some(u));
            prop_assert_eq!(path.last(), Some(v));
        }
        for (i, a) in family.iter().enumerate() {
            for b in &family[i + 1..] {
                prop_assert!(a.internally_disjoint(b));
            }
        }
    }

    /// A minimum uv-separator disconnects u from v, has size equal to the
    /// number of disjoint paths, and never contains u or v.
    #[test]
    fn min_separator_matches_disjoint_paths(n in 5usize..9, p in 0.3f64..0.8, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        let u = NodeId::new(0);
        let v = NodeId::new(n - 1);
        prop_assume!(!g.has_edge(u, v));
        let count = paths::max_disjoint_uv_paths(&g, u, v, usize::MAX);
        let separator = connectivity::min_uv_separator(&g, u, v).unwrap();
        prop_assert_eq!(separator.len(), count);
        prop_assert!(!separator.contains(u) && !separator.contains(v));
        // After removing the separator, v is unreachable from u.
        let reach = g.reachable_from(u, &separator);
        prop_assert!(!reach.contains(v));
    }

    /// `path_excluding` returns a valid path that excludes the set, whenever
    /// it returns anything; and it always succeeds when the excluded set is
    /// empty and the graph is connected.
    #[test]
    fn path_excluding_is_sound(n in 4usize..10, p in 0.3f64..0.9, seed in 0u64..500, excl_bits in 0u16..64) {
        let g = random_graph(n, p, seed);
        let u = NodeId::new(0);
        let v = NodeId::new(n - 1);
        let exclude: NodeSet = (0..n)
            .filter(|i| excl_bits & (1 << i) != 0)
            .map(NodeId::new)
            .collect();
        if let Some(path) = paths::path_excluding(&g, u, v, &exclude) {
            prop_assert!(g.is_path(&path));
            prop_assert!(path.excludes(&exclude));
            prop_assert_eq!(path.first(), Some(u));
            prop_assert_eq!(path.last(), Some(v));
        }
        if g.is_connected() {
            prop_assert!(paths::path_excluding(&g, u, v, &NodeSet::new()).is_some());
        }
    }

    /// Set-to-node disjoint paths: distinct sources, shared endpoint only,
    /// exclusion respected.
    #[test]
    fn set_to_node_paths_are_disjoint(n in 5usize..9, p in 0.4f64..0.9, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        prop_assume!(g.is_connected());
        let v = NodeId::new(0);
        let sources: NodeSet = (1..n).map(NodeId::new).collect();
        let family = paths::disjoint_set_to_node_paths(&g, &sources, v, &NodeSet::new(), usize::MAX);
        prop_assert!(!family.is_empty());
        for path in &family {
            prop_assert!(g.is_path(path));
            prop_assert!(sources.contains(path.first().unwrap()));
            prop_assert_eq!(path.last(), Some(v));
        }
        for (i, a) in family.iter().enumerate() {
            for b in &family[i + 1..] {
                prop_assert!(a.disjoint_except_endpoint(b, v));
            }
        }
        // The fan size is at least the local structure allows: at least
        // min(degree of v, 1).
        prop_assert!(family.len() >= 1.min(g.degree(v)));
    }

    /// Harary graphs hit their design connectivity exactly, for every valid
    /// (k, n) pair in the sampled range.
    #[test]
    fn harary_is_exactly_k_connected(k in 1usize..6, extra in 1usize..6) {
        let n = k + 1 + extra;
        let g = generators::harary(k, n);
        prop_assert!(g.min_degree() >= k);
        prop_assert_eq!(connectivity::vertex_connectivity(&g), k);
    }

    /// The neighborhood of a set never intersects the set, and every
    /// neighborhood member has an edge into the set.
    #[test]
    fn set_neighborhood_is_a_frontier(n in 4usize..10, p in 0.2f64..0.9, seed in 0u64..500, bits in 0u16..256) {
        let g = random_graph(n, p, seed);
        let s: NodeSet = (0..n)
            .filter(|i| bits & (1 << i) != 0)
            .map(NodeId::new)
            .collect();
        let frontier = g.neighborhood_of_set(&s);
        prop_assert!(frontier.is_disjoint(&s));
        for w in frontier.iter() {
            prop_assert!(g.neighbors(w).any(|x| s.contains(x)));
        }
    }

    /// The cut partition returned for a disconnecting set is valid, and the
    /// minimum cut's size equals the vertex connectivity for non-complete
    /// connected graphs.
    #[test]
    fn min_cut_partition_is_consistent(n in 5usize..9, p in 0.3f64..0.8, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        prop_assume!(g.is_connected());
        let kappa = connectivity::vertex_connectivity(&g);
        prop_assume!(kappa < n - 1); // not complete
        let partition = cuts::min_cut_partition(&g).unwrap();
        prop_assert!(partition.is_valid(&g));
        prop_assert_eq!(partition.cut.len(), kappa);
        prop_assert!(g.disconnects(&partition.cut));
    }

    /// Random "satisfying" graphs really satisfy the paper's conditions.
    #[test]
    fn random_satisfying_satisfies(f in 1usize..4, extra in 1usize..4, seed in 0u64..200) {
        let n = 2 * f + 1 + extra;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_satisfying(n, f, 0.3, &mut rng);
        prop_assert!(g.min_degree() >= 2 * f);
        prop_assert!(connectivity::is_k_connected(&g, (3 * f) / 2 + 1));
    }
}

// ---------------------------------------------------------------------------
// Definition C.1's disjoint-family search against brute force.
// ---------------------------------------------------------------------------

/// The graphs the search is checked on: cycles C4–C9, K5–K6, and the
/// circulants C5–C9(1,2) and C8–C9(1,3).
fn search_graph(index: usize) -> Graph {
    match index {
        0..=5 => generators::cycle(index + 4),
        6 => generators::complete(5),
        7 => generators::complete(6),
        8..=12 => generators::circulant(index - 3, &[1, 2]),
        _ => generators::circulant(index - 5, &[1, 3]),
    }
}

/// Number of graphs [`search_graph`] knows.
const SEARCH_GRAPHS: usize = 15;

/// Whether some `k` of `sets` are pairwise disjoint, by trying every
/// `k`-subset.
fn disjoint_family_oracle(sets: &[NodeSet], k: usize) -> bool {
    fn pick(sets: &[NodeSet], k: usize, start: usize, chosen: &mut Vec<usize>) -> bool {
        if chosen.len() == k {
            return chosen.iter().enumerate().all(|(i, &a)| {
                chosen[i + 1..]
                    .iter()
                    .all(|&b| sets[a].is_disjoint(&sets[b]))
            });
        }
        (start..sets.len()).any(|next| {
            chosen.push(next);
            let found = pick(sets, k, next + 1, chosen);
            chosen.pop();
            found
        })
    }
    pick(sets, k, 0, &mut Vec::new())
}

/// The internal node sets of `candidates`, the search's input.
fn internal_sets(candidates: &[Path]) -> Vec<NodeSet> {
    candidates
        .iter()
        .map(|path| path.internal_nodes().collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `has_disjoint_family` answers exactly like the brute force on
    /// multisets of `uv`-paths: drawn from every simple path, or only from
    /// those through one node (the copies of a value forged there), with
    /// one candidate twice and up to two copies of the direct edge.
    #[test]
    fn disjoint_family_matches_brute_force(
        graph_index in 0usize..SEARCH_GRAPHS,
        u in 0usize..9,
        offset in 1usize..9,
        picks in prop::collection::vec(0usize..100_000, 0..12),
        through in 0usize..12,
        direct in 0usize..3,
    ) {
        let g = search_graph(graph_index);
        let n = g.node_count();
        let (u, v) = (NodeId::new(u % n), NodeId::new((u + offset) % n));
        prop_assume!(u != v);
        let through = NodeId::new(through);
        let pool: Vec<Path> = paths::all_simple_paths(&g, u, v)
            .into_iter()
            .filter(|path| through.index() >= n || path.internal_nodes().any(|w| w == through))
            .collect();
        let mut candidates: Vec<Path> = if pool.is_empty() {
            Vec::new()
        } else {
            picks.iter().map(|&i| pool[i % pool.len()].clone()).collect()
        };
        if let Some(first) = candidates.first().cloned() {
            candidates.push(first);
        }
        candidates.extend((0..direct).map(|_| Path::from_nodes([u, v])));
        let sets = internal_sets(&candidates);
        for k in 0..=4 {
            prop_assert_eq!(
                paths::has_disjoint_family(sets.clone(), k),
                disjoint_family_oracle(&sets, k),
                "graph {}, {}-{}, k = {}, candidates {:?}",
                graph_index, u, v, k, candidates
            );
        }
    }

    /// The same comparison on arbitrary families of sets over six nodes,
    /// plus up to two empty sets. Here smallest-first greedy often takes a
    /// set that blocks the answer, so the minimal-set search decides.
    #[test]
    fn disjoint_family_matches_brute_force_on_arbitrary_sets(
        masks in prop::collection::vec(1u64..64, 0..10),
        empties in 0usize..3,
    ) {
        let mut sets: Vec<NodeSet> = masks
            .iter()
            .map(|mask| (0..6).filter(|i| mask >> i & 1 == 1).map(NodeId::new).collect())
            .collect();
        sets.extend((0..empties).map(|_| NodeSet::new()));
        for k in 0..=5 {
            prop_assert_eq!(
                paths::has_disjoint_family(sets.clone(), k),
                disjoint_family_oracle(&sets, k),
                "k = {}, sets {:?}",
                k, sets
            );
        }
    }
}

/// Every copy of a value forged at one node passes through it, so however
/// many paths carry the copies, no two are disjoint; the direct edge is the
/// only second member such a family can gain.
#[test]
fn paths_through_one_node_never_form_a_pair() {
    for index in 0..SEARCH_GRAPHS {
        let g = search_graph(index);
        let (u, v) = (NodeId::new(0), NodeId::new(g.node_count() / 2));
        for through in g.nodes().filter(|&w| w != u && w != v) {
            let mut forged = internal_sets(
                &paths::all_simple_paths(&g, u, v)
                    .into_iter()
                    .filter(|path| path.internal_nodes().any(|w| w == through))
                    .collect::<Vec<_>>(),
            );
            assert!(!forged.is_empty(), "graph {index}, through {through}");
            assert!(paths::has_disjoint_family(forged.clone(), 1));
            assert!(!paths::has_disjoint_family(forged.clone(), 2));
            forged.push(NodeSet::new());
            assert!(paths::has_disjoint_family(forged.clone(), 2));
            assert!(!paths::has_disjoint_family(forged, 3));
        }
    }
}

/// On every simple path between two nodes, the search finds exactly the
/// Menger number of disjoint paths.
#[test]
fn all_simple_paths_hold_the_menger_number() {
    for index in 0..SEARCH_GRAPHS {
        let g = search_graph(index);
        let (u, v) = (NodeId::new(0), NodeId::new(g.node_count() / 2));
        let sets = internal_sets(&paths::all_simple_paths(&g, u, v));
        let menger = paths::max_disjoint_uv_paths(&g, u, v, usize::MAX);
        assert!(
            paths::has_disjoint_family(sets.clone(), menger),
            "graph {index}"
        );
        assert!(
            !paths::has_disjoint_family(sets, menger + 1),
            "graph {index}"
        );
    }
}
