//! # lbc-bench
//!
//! Shared helpers for the Criterion benchmark harness. Each bench target
//! corresponds to one experiment id (the E1–E8 table in the
//! `lbc_experiments` crate docs): it prints the experiment's table (the
//! "figure/table regeneration") and then benchmarks the hot path behind it.
//!
//! The [`floodsim`] module drives whole-graph floods through both flood
//! engines — the production shared-fabric
//! [`lbc_consensus::flooding::LedgerFlooder`] and the pre-interning
//! [`lbc_consensus::flooding::NaiveFlooder`] reference — so the benches
//! measure both on the same workload and `bench_gate` can hold the
//! naive-over-ledger ratio.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lbc_experiments::ExperimentResult;

/// Prints an experiment table with a separating banner, so `cargo bench`
/// output contains the regenerated rows alongside the timing data.
pub fn print_experiment(result: &ExperimentResult) {
    println!();
    println!("================ {} ================", result.id);
    println!("{}", result.render_table());
    println!();
}

/// Whole-graph flood drivers over both engines.
pub mod floodsim {
    use lbc_consensus::flooding::{LedgerFlooder, NaiveFloodMsg, NaiveFlooder};
    use lbc_consensus::FloodMsg;
    use lbc_graph::Graph;
    use lbc_model::{NodeId, SharedFloodLedger, SharedPathArena, Value};
    use lbc_sim::{Delivery, Inbox, Outgoing};

    fn input(v: usize) -> Value {
        Value::from(v.is_multiple_of(2))
    }

    /// A node's initial transmissions, as returned by the engines' `start`.
    type Initiations<M> = Vec<Vec<Outgoing<M>>>;

    /// The minimal engine interface the shared driver needs. Both engines
    /// run through the *same* generic loop, so the ledger-vs-naive bench
    /// comparison cannot drift apart driver-wise.
    trait FloodEngine: Sized {
        type Msg: Clone;
        fn start_all(graph: &Graph) -> (Vec<Self>, Initiations<Self::Msg>);
        fn on_round(
            &mut self,
            graph: &Graph,
            first_round: bool,
            inbox: Inbox<'_, Self::Msg>,
        ) -> Vec<Outgoing<Self::Msg>>;
        fn received_count(&self) -> usize;
    }

    impl FloodEngine for LedgerFlooder {
        type Msg = FloodMsg;

        fn start_all(graph: &Graph) -> (Vec<Self>, Initiations<FloodMsg>) {
            let arena = SharedPathArena::new();
            let ledger = SharedFloodLedger::new();
            (0..graph.node_count())
                .map(|v| {
                    LedgerFlooder::start(arena.clone(), ledger.clone(), NodeId::new(v), input(v))
                })
                .unzip()
        }

        fn on_round(
            &mut self,
            graph: &Graph,
            first_round: bool,
            inbox: Inbox<'_, FloodMsg>,
        ) -> Vec<Outgoing<FloodMsg>> {
            LedgerFlooder::on_round(self, graph, first_round, inbox)
        }

        fn received_count(&self) -> usize {
            LedgerFlooder::received_count(self)
        }
    }

    impl FloodEngine for NaiveFlooder {
        type Msg = NaiveFloodMsg;

        fn start_all(graph: &Graph) -> (Vec<Self>, Initiations<NaiveFloodMsg>) {
            (0..graph.node_count())
                .map(|v| NaiveFlooder::start(NodeId::new(v), input(v)))
                .unzip()
        }

        fn on_round(
            &mut self,
            graph: &Graph,
            first_round: bool,
            inbox: Inbox<'_, NaiveFloodMsg>,
        ) -> Vec<Outgoing<NaiveFloodMsg>> {
            NaiveFlooder::on_round(self, graph, first_round, inbox)
        }

        fn received_count(&self) -> usize {
            NaiveFlooder::received_count(self)
        }
    }

    /// Floods every node's input for `rounds` rounds under local-broadcast
    /// delivery; returns the total number of full paths received across all
    /// nodes (kept as an optimization barrier).
    fn flood<E: FloodEngine>(graph: &Graph, rounds: usize) -> usize {
        let node_count = graph.node_count();
        let (mut flooders, mut pending) = E::start_all(graph);
        for round in 0..rounds {
            let mut inboxes: Vec<Vec<Delivery<E::Msg>>> = vec![Vec::new(); node_count];
            for (sender, outgoing) in pending.iter().enumerate() {
                for o in outgoing {
                    if let Outgoing::Broadcast(m) = o {
                        for neighbor in graph.neighbors(NodeId::new(sender)) {
                            inboxes[neighbor.index()].push(Delivery {
                                from: NodeId::new(sender),
                                message: m.clone(),
                            });
                        }
                    }
                }
            }
            for (v, flooder) in flooders.iter_mut().enumerate() {
                pending[v] = flooder.on_round(graph, round == 0, Inbox::direct(&inboxes[v]));
            }
        }
        flooders.iter().map(E::received_count).sum()
    }

    /// The flood through the production shared-fabric ledger engine.
    #[must_use]
    pub fn flood_ledger(graph: &Graph, rounds: usize) -> usize {
        flood::<LedgerFlooder>(graph, rounds)
    }

    /// The same flood through the naive `Path`-cloning reference engine.
    #[must_use]
    pub fn flood_naive(graph: &Graph, rounds: usize) -> usize {
        flood::<NaiveFlooder>(graph, rounds)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use lbc_graph::generators;

        #[test]
        fn both_engines_count_the_same_paths() {
            for graph in [generators::cycle(7), generators::wheel(8)] {
                let rounds = graph.node_count();
                assert_eq!(flood_ledger(&graph, rounds), flood_naive(&graph, rounds));
            }
        }
    }
}
