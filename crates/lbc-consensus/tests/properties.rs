//! Property-based tests: consensus correctness on randomly generated
//! satisfying graphs with random fault placements, inputs, and adversary
//! strategies; plus structural properties of the feasibility conditions.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use lbc_adversary::Strategy;
use lbc_consensus::{conditions, runner, AlgorithmKind};
use lbc_graph::{generators, Graph};
use lbc_model::{InputAssignment, NodeId, NodeSet, Regime};

/// A random graph satisfying the paper's f = 1 conditions (minimum degree 2,
/// 2-connected), on 5–8 nodes.
fn satisfying_graph_f1(n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::random_satisfying(n, 1, 0.25, &mut rng)
}

fn strategy_from_index(index: usize) -> Strategy {
    let all = Strategy::all(17);
    all[index % all.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// **Sufficiency, randomized** (Theorem 5.1): Algorithm 1 reaches
    /// consensus on random satisfying graphs with a random Byzantine node, a
    /// random strategy, and random inputs.
    #[test]
    fn algorithm1_correct_on_random_satisfying_graphs(
        n in 5usize..8,
        seed in 0u64..10_000,
        faulty_index in 0usize..8,
        strategy_index in 0usize..8,
        bits in 0u64..256,
    ) {
        let graph = satisfying_graph_f1(n, seed);
        prop_assume!(conditions::local_broadcast_feasible(&graph, 1));
        let faulty = NodeSet::singleton(NodeId::new(faulty_index % n));
        let inputs = InputAssignment::from_bits(n, bits);
        let strategy = strategy_from_index(strategy_index);
        let mut adversary = strategy.clone().into_adversary();
        let (outcome, _) = runner::run_kind_under(
            AlgorithmKind::Algorithm1,
            &Regime::Synchronous,
            &graph,
            1,
            &inputs,
            &faulty,
            &mut adversary,
        );
        prop_assert!(
            outcome.verdict().is_correct(),
            "n={n} seed={seed} faulty={faulty} strategy={} inputs={inputs}: {outcome}",
            strategy.name()
        );
    }

    /// **Validity under unanimity, randomized**: when every non-faulty node
    /// holds the same input, that value is the only possible output,
    /// whatever the (single) faulty node does.
    #[test]
    fn unanimous_inputs_decide_that_value(
        n in 5usize..8,
        seed in 0u64..10_000,
        faulty_index in 0usize..8,
        strategy_index in 0usize..8,
        unanimous in any::<bool>(),
    ) {
        let graph = satisfying_graph_f1(n, seed);
        prop_assume!(conditions::local_broadcast_feasible(&graph, 1));
        let faulty = NodeSet::singleton(NodeId::new(faulty_index % n));
        let value = lbc_model::Value::from(unanimous);
        let mut inputs = InputAssignment::uniform(n, value);
        // The faulty node's own input may be anything.
        inputs.set(NodeId::new(faulty_index % n), value.flipped());
        let strategy = strategy_from_index(strategy_index);
        let mut adversary = strategy.into_adversary();
        let (outcome, _) = runner::run_kind_under(
            AlgorithmKind::Algorithm1,
            &Regime::Synchronous,
            &graph,
            1,
            &inputs,
            &faulty,
            &mut adversary,
        );
        prop_assert!(outcome.verdict().is_correct(), "{outcome}");
        prop_assert_eq!(outcome.agreed_value(), Some(value));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feasibility is antitone in `f`: a graph feasible for `f + 1` is
    /// feasible for `f`, under all three characterizations.
    #[test]
    fn feasibility_is_antitone_in_f(n in 4usize..10, p in 0.3f64..0.9, seed in 0u64..1000, f in 0usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_gnp(n, p, &mut rng);
        if conditions::local_broadcast_feasible(&graph, f + 1) {
            prop_assert!(conditions::local_broadcast_feasible(&graph, f));
        }
        if conditions::point_to_point_feasible(&graph, f + 1) {
            prop_assert!(conditions::point_to_point_feasible(&graph, f));
        }
        if conditions::hybrid_feasible(&graph, f + 1, 0) {
            prop_assert!(conditions::hybrid_feasible(&graph, f, 0));
        }
    }

    /// The hybrid requirement is monotone in `t` and interpolates between the
    /// two pure models.
    #[test]
    fn hybrid_requirement_is_monotone(f in 0usize..8) {
        let mut previous = 0;
        for t in 0..=f {
            let req = conditions::hybrid_connectivity_requirement(f, t);
            prop_assert!(req >= previous);
            previous = req;
        }
        prop_assert_eq!(
            conditions::hybrid_connectivity_requirement(f, 0),
            conditions::local_broadcast_connectivity_requirement(f)
        );
        prop_assert_eq!(
            conditions::hybrid_connectivity_requirement(f, f),
            conditions::point_to_point_connectivity_requirement(f)
        );
    }

    /// Point-to-point feasibility implies local broadcast feasibility
    /// (equivocation only makes the adversary stronger), for every graph.
    #[test]
    fn p2p_feasible_implies_local_broadcast_feasible(n in 4usize..10, p in 0.3f64..0.9, seed in 0u64..1000, f in 0usize..3) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_gnp(n, p, &mut rng);
        if conditions::point_to_point_feasible(&graph, f) {
            prop_assert!(conditions::local_broadcast_feasible(&graph, f));
            prop_assert!(conditions::hybrid_feasible(&graph, f, f.min(1)));
        }
    }
}
