//! # shp-vertex-centric
//!
//! A Giraph-style vertex-centric Bulk Synchronous Parallel (BSP) engine.
//!
//! The SHP paper implements its partitioner on Apache Giraph: the input graph is stored as a
//! collection of vertices distributed over workers, computation proceeds in *supersteps*
//! separated by synchronization barriers, vertices exchange messages that are delivered at the
//! start of the next superstep, and a *master* aggregates global state (the swap matrix /
//! move-probability histograms) between supersteps.
//!
//! This crate reproduces that execution model in-process:
//!
//! * [`VertexProgram`] — the user-defined per-vertex compute function, message combiner,
//!   aggregate merge, and master compute, mirroring Giraph's `Computation`,
//!   `MessageCombiner`, `Aggregator`, and `MasterCompute`.
//! * [`Engine`] — distributes vertices over a configurable number of simulated workers
//!   (vertex `v` lives on worker `v mod W`, as with Giraph's random vertex distribution),
//!   runs each superstep's per-worker message grouping and compute on one real scoped thread
//!   per worker (merging worker results in worker-index order, so outcomes never depend on
//!   thread interleaving), and applies combiners.
//! * [`ExecutionMetrics`] — per-superstep accounting of messages, bytes, and local-vs-remote
//!   traffic, so the communication-complexity claims of Section 3.3 of the paper can be
//!   checked quantitatively even though no real network is involved.
//!
//! ## The message plane
//!
//! A run allocates a few buffers per worker and keeps them across supersteps; nothing is
//! allocated per message, and nothing per vertex but what a program allocates itself:
//!
//! * **Sending: each payload stored once.** [`Context::send`] and
//!   [`Context::send_to_neighbors`] store the message once in the worker's outbox
//!   ([`routing::WorkerOutbox`]) and queue a 12-byte envelope `(destination, sender, payload
//!   index)` per destination in the lane of the destination's worker, so a broadcast to all
//!   out-neighbors clones nothing (Pregel's send-to-all-edges, shipped once per worker as
//!   Giraph can). The byte counters still charge [`VertexProgram::message_size`] per
//!   destination.
//! * **Delivery on the receiving worker, in ascending sender order.** The outboxes filled in
//!   superstep s stay read-only through superstep s + 1. Each worker then reads the lanes
//!   addressed to it, on its own thread, in merged sender order (each lane is sorted by
//!   sender, since a worker computes its vertices in ascending order). So every vertex
//!   receives its messages in **ascending sender order**, each sender's in send order, at any
//!   worker count: a float fold over them gives the same bits on one worker or many (Pregel
//!   leaves the order unspecified).
//! * **Grouping.** That walk is the second pass of one counting sort over the receiving
//!   worker's local vertex index ([`routing::GroupedInbox::group`]): it writes a `(store,
//!   index)` reference to each payload straight into its final slot of a flat array, and a
//!   vertex's `compute` reads its run through a [`Messages`] view, each message in place in
//!   the outbox that sent it. A program with a combiner ([`VertexProgram::combiner`], asked
//!   once per superstep) has it folded over each vertex's run in that order; a program without
//!   one pays nothing per message for it.
//! * **Aggregating in place.** Each worker keeps one accumulator per superstep. A vertex adds
//!   to it directly ([`Context::accumulator`]) or merges a contribution into it
//!   ([`Context::aggregate`], through [`VertexProgram::merge_aggregates`], which takes `&mut`
//!   accumulator and the contribution by value), and the master merges the workers'
//!   accumulators the same way, in worker-index order.
//!
//! Each worker's outboxes, lanes, inbox and scratch sit on cache lines of their own, so worker
//! threads never write to a shared line.
//!
//! The engine is deliberately independent of the partitioner: the unit tests run classical
//! vertex-centric algorithms (connected components, degree counting) on it, and
//! `shp-core::distributed` builds the four-superstep SHP iteration (Figure 3 of the paper)
//! on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod engine;
pub mod metrics;
pub mod program;
pub mod routing;
pub mod topology;

pub use context::Context;
pub use engine::{Engine, EngineConfig};
pub use metrics::{ExecutionMetrics, SuperstepMetrics};
pub use program::{Combiner, MasterOutcome, VertexProgram};
pub use routing::Messages;
pub use topology::{Topology, TopologyBuilder};
