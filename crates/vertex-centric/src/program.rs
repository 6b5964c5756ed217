//! The [`VertexProgram`] trait: the user-defined part of a vertex-centric computation.

use crate::context::Context;
use crate::routing::Messages;

/// A message combiner (Giraph's `MessageCombiner`): merges two messages addressed to the same
/// vertex into one, or returns `None` to deliver both.
pub type Combiner<M> = fn(&M, &M) -> Option<M>;

/// Decision returned by [`VertexProgram::master_compute`] after every superstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterOutcome<G> {
    /// Continue with the next superstep, broadcasting the given global value to all vertices.
    Continue(G),
    /// Stop the computation after this superstep, leaving the previous global value in place.
    Halt,
}

/// A vertex-centric program in the Pregel/Giraph mold.
///
/// Types:
/// * `Value` — mutable per-vertex state (e.g. current bucket, cached neighbor data).
/// * `Message` — messages exchanged along edges; delivered at the next superstep.
/// * `Aggregate` — per-superstep aggregation contributed by vertices and merged pairwise,
///   corresponding to Giraph aggregators (SHP uses it for the swap matrix / gain histograms).
/// * `Global` — the value computed by the master from the merged aggregate and broadcast to
///   every vertex for the next superstep (SHP uses it for move probabilities).
/// * `Scratch` — worker-local working memory, made once per worker with `Default` and lent to
///   its compute calls ([`Context::scratch`]), like Giraph's `WorkerContext`.
///
/// The engine calls [`compute`](VertexProgram::compute) for every *active* vertex each
/// superstep. A vertex is active if it received a message or has not voted to halt.
pub trait VertexProgram: Sync {
    /// Mutable per-vertex state.
    type Value: Clone + Send + Sync;
    /// Message type exchanged between vertices.
    type Message: Clone + Send + Sync;
    /// Per-superstep aggregate contributed by vertices, merged pairwise by the engine.
    type Aggregate: Clone + Send + Default;
    /// Global value computed by the master and visible to every vertex in the next superstep.
    type Global: Clone + Send + Sync + Default;
    /// Worker-local scratch; which vertices share one depends on the worker count, so what a
    /// compute call leaves in it must not change a later call's result.
    type Scratch: Default + Send;

    /// Per-vertex compute function executed once per superstep for every active vertex, with
    /// the messages sent to it in the previous superstep in ascending sender order.
    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        vertex: u32,
        value: &mut Self::Value,
        messages: Messages<'_, Self::Message>,
    );

    /// The program's message combiner, if it has one. The engine asks once per superstep and
    /// folds the combiner over each vertex's messages in delivery order, merging a message
    /// into the vertex's last kept one whenever the combiner returns `Some`. `None` (the
    /// default) delivers every message as sent, at no cost per message.
    fn combiner(&self) -> Option<Combiner<Self::Message>> {
        None
    }

    /// Merges the partial aggregate `other` into `into`. Must be associative and commutative.
    ///
    /// The engine folds each vertex's contribution into its worker's accumulator in place, and
    /// the workers' accumulators into the master's in worker-index order.
    fn merge_aggregates(&self, into: &mut Self::Aggregate, other: Self::Aggregate);

    /// Master compute hook, run after every superstep with the merged aggregate. Returns the
    /// global value for the next superstep or halts the computation.
    fn master_compute(
        &self,
        superstep: usize,
        aggregate: Self::Aggregate,
        previous_global: &Self::Global,
    ) -> MasterOutcome<Self::Global>;

    /// Estimated wire size of a message in bytes, used for communication accounting only.
    fn message_size(&self, _message: &Self::Message) -> usize {
        std::mem::size_of::<Self::Message>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_outcome_equality() {
        let a: MasterOutcome<u32> = MasterOutcome::Continue(5);
        let b: MasterOutcome<u32> = MasterOutcome::Continue(5);
        assert_eq!(a, b);
        assert_ne!(a, MasterOutcome::Halt);
    }
}
