//! The per-vertex compute context handed to [`crate::VertexProgram::compute`].

use crate::program::VertexProgram;
use crate::routing::WorkerOutbox;
use crate::topology::Topology;

/// Everything a vertex may do during its compute call: inspect the superstep and the global
/// value, look at its out-neighbors, send messages, contribute to the aggregate, and vote to
/// halt. Mirrors the API surface Giraph exposes to a `Computation`.
pub struct Context<'a, P: VertexProgram + ?Sized> {
    pub(crate) program: &'a P,
    pub(crate) superstep: usize,
    pub(crate) global: &'a P::Global,
    pub(crate) topology: &'a Topology,
    pub(crate) vertex: u32,
    pub(crate) outbox: &'a mut WorkerOutbox<P::Message>,
    pub(crate) aggregate: &'a mut P::Aggregate,
    pub(crate) scratch: &'a mut P::Scratch,
    pub(crate) halt: &'a mut bool,
}

impl<'a, P: VertexProgram + ?Sized> Context<'a, P> {
    /// The current superstep number (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// The global value computed by the master after the previous superstep.
    pub fn global(&self) -> &P::Global {
        self.global
    }

    /// The id of the vertex currently being computed.
    pub fn vertex(&self) -> u32 {
        self.vertex
    }

    /// Number of vertices in the whole graph.
    pub fn num_vertices(&self) -> usize {
        self.topology.num_vertices()
    }

    /// Out-neighbors of the current vertex.
    pub fn neighbors(&self) -> &'a [u32] {
        self.topology.neighbors(self.vertex)
    }

    /// Out-degree of the current vertex.
    pub fn degree(&self) -> usize {
        self.topology.degree(self.vertex)
    }

    /// Sends a message to vertex `to`, delivered at the start of the next superstep.
    pub fn send(&mut self, to: u32, message: P::Message) {
        let size = self.program.message_size(&message);
        self.outbox
            .push(self.vertex, std::slice::from_ref(&to), message, size);
    }

    /// Sends `message` to every out-neighbor of the current vertex. The payload is stored once
    /// in the worker's outbox, never cloned, and each out-neighbor reads it in place; each
    /// delivery is still charged [`crate::VertexProgram::message_size`] bytes.
    pub fn send_to_neighbors(&mut self, message: P::Message) {
        let size = self.program.message_size(&message);
        let neighbors = self.topology.neighbors(self.vertex);
        self.outbox.push(self.vertex, neighbors, message, size);
    }

    /// Contributes a value to this superstep's aggregate: it is merged into the worker's
    /// accumulator in place with [`crate::VertexProgram::merge_aggregates`].
    pub fn aggregate(&mut self, contribution: P::Aggregate) {
        self.program.merge_aggregates(self.aggregate, contribution);
    }

    /// The worker's accumulator of this superstep's aggregate, to add a contribution to in
    /// place instead of building one for [`Context::aggregate`]. Whatever a vertex adds must
    /// be what merging its contribution would add, so the result does not depend on which
    /// vertices share a worker.
    pub fn accumulator(&mut self) -> &mut P::Aggregate {
        self.aggregate
    }

    /// The scratch of the worker computing this vertex ([`crate::VertexProgram::Scratch`]).
    pub fn scratch(&mut self) -> &mut P::Scratch {
        self.scratch
    }

    /// Votes to halt: the vertex will not be computed in later supersteps unless it receives a
    /// message.
    pub fn vote_to_halt(&mut self) {
        *self.halt = true;
    }
}
