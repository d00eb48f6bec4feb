//! Algorithm 1: exact Byzantine consensus under the local broadcast model
//! (Theorem 5.1).

use lbc_model::{Round, Value};
use lbc_sim::{Inbox, NodeContext, Outgoing, Protocol};

use crate::messages::FloodMsg;
use crate::phased::{PhasedNode, StepCCase};

/// A node running **Algorithm 1** of the paper: the exponential-phase exact
/// Byzantine consensus algorithm for graphs with minimum degree ≥ `2f` and
/// vertex connectivity ≥ `⌊3f/2⌋ + 1` under the local broadcast model.
///
/// The algorithm executes one phase per candidate fault set `F ⊆ V` with
/// `|F| ≤ f` (`Σ_{i≤f} C(n,i)` phases of `n` flooding rounds each), so it is
/// intended for small networks; for `2f`-connected graphs use the `O(n)`
/// round [`crate::Algorithm2Node`].
///
/// # Example
///
/// ```
/// use lbc_consensus::{runner, AlgorithmKind};
/// use lbc_graph::generators;
/// use lbc_model::{InputAssignment, NodeSet, Regime};
/// use lbc_sim::HonestAdversary;
///
/// let graph = generators::paper_fig1a(); // the 5-cycle, f = 1
/// let inputs = InputAssignment::from_bits(5, 0b00110);
/// let (outcome, _) = runner::run_kind_under(
///     AlgorithmKind::Algorithm1,
///     &Regime::Synchronous,
///     &graph,
///     1,
///     &inputs,
///     &NodeSet::new(),
///     &mut HonestAdversary,
/// );
/// assert!(outcome.verdict().is_correct());
/// ```
#[derive(Debug, Clone)]
pub struct Algorithm1Node {
    inner: PhasedNode,
}

impl Algorithm1Node {
    /// Creates an Algorithm 1 node with the given binary input.
    #[must_use]
    pub fn new(input: Value) -> Self {
        Algorithm1Node {
            inner: PhasedNode::new(input, 0),
        }
    }

    /// The node's input value.
    #[must_use]
    pub fn input(&self) -> Value {
        self.inner.input()
    }

    /// The node's current state `γ_v` (equals the output once decided).
    #[must_use]
    pub fn gamma(&self) -> Value {
        self.inner.gamma()
    }

    /// The step-(c) cases taken in the phases completed so far (diagnostics).
    #[must_use]
    pub fn case_log(&self) -> &[StepCCase] {
        self.inner.case_log()
    }

    /// The number of phases Algorithm 1 executes on an `n`-node graph with
    /// fault bound `f`: `Σ_{i ≤ f} C(n, i)`.
    #[must_use]
    pub fn phase_count(n: usize, f: usize) -> usize {
        PhasedNode::phase_count(n, f, 0)
    }

    /// The total number of synchronous rounds Algorithm 1 needs on an
    /// `n`-node graph with fault bound `f` (phases × `n` rounds of flooding).
    #[must_use]
    pub fn round_count(n: usize, f: usize) -> usize {
        Self::phase_count(n, f) * n.max(1)
    }
}

impl Protocol for Algorithm1Node {
    type Message = FloodMsg;

    fn on_start(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<FloodMsg>> {
        self.inner.on_start(ctx)
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: Round,
        inbox: Inbox<'_, FloodMsg>,
    ) -> Vec<Outgoing<FloodMsg>> {
        self.inner.on_round(ctx, round, inbox)
    }

    fn output(&self) -> Option<Value> {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_and_round_counts() {
        assert_eq!(Algorithm1Node::phase_count(5, 1), 6);
        assert_eq!(Algorithm1Node::round_count(5, 1), 30);
        assert_eq!(Algorithm1Node::phase_count(5, 2), 16);
        assert_eq!(Algorithm1Node::round_count(5, 2), 80);
    }

    #[test]
    fn construction_exposes_input_and_gamma() {
        let node = Algorithm1Node::new(Value::Zero);
        assert_eq!(node.input(), Value::Zero);
        assert_eq!(node.gamma(), Value::Zero);
        assert_eq!(node.output(), None);
        assert!(node.case_log().is_empty());
    }
}
