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
//!   runs each superstep's per-worker compute on one real scoped thread per worker (merging
//!   worker results in worker-index order, so outcomes never depend on thread interleaving),
//!   routes messages between workers, and applies combiners.
//! * [`ExecutionMetrics`] — per-superstep accounting of messages, bytes, and local-vs-remote
//!   traffic, so the communication-complexity claims of Section 3.3 of the paper can be
//!   checked quantitatively even though no real network is involved.
//!
//! ## The message plane
//!
//! Per superstep the engine allocates a few buffers per worker, not one per vertex or per
//! message:
//!
//! * **Sending.** [`Context::send_to_neighbors`] pushes one `clone` of the message per
//!   out-neighbor into the worker's outbox, which keeps one buffer per destination worker. A
//!   program whose message shares its payload behind an `Arc` (as SHP's neighbor data does)
//!   sends it without copying the payload; the byte counters still charge
//!   [`VertexProgram::message_size`] per copy.
//! * **Routing.** Each message carries its sender in what would be padding, and at the barrier
//!   [`routing::route`] merges the outbox buffers, each sorted by sender, by sender. So every
//!   vertex receives its messages in **ascending sender order** at any worker count: a float
//!   fold over them gives the same bits on one worker or many (Pregel leaves it unspecified).
//! * **Grouping.** Each worker groups its inbox with [`routing::group_inbox`]: one counting
//!   sort over the worker-local vertex index into a flat message array plus offsets, stable
//!   within each vertex, with [`VertexProgram::combine`] folded over each vertex's run in
//!   arrival order. A vertex's `compute` sees its run as a slice of that array.
//! * **Aggregating.** Each worker keeps one accumulator per superstep.
//!   [`Context::aggregate`] merges a contribution into it in place
//!   ([`VertexProgram::merge_aggregates`] takes `&mut` accumulator and the contribution by
//!   value), and the master merges the workers' accumulators the same way, in worker-index
//!   order.
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
pub use program::{MasterOutcome, VertexProgram};
pub use topology::{Topology, TopologyBuilder};
